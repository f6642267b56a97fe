"""Tests of the benchmark itself: its fast mode prints every metric with its
unit, and its correctness checks reject corrupted outputs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

run.import_package()

from miscorr import cli, estimators, simkit  # noqa: E402
from miscorr.errors import RankDeficient  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_fast_mode_prints_every_metric_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all",
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--fast"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    expected = run.PER_LAYER if trace else run.END_TO_END
    outputs = [[]]  # one list of lines per workload, each ending in its result
    for line in done.stdout.splitlines():
        outputs[-1].append(line)
        if line.startswith('{"correct"'):
            outputs.append([])
    assert len(outputs[:-1]) == len(run.WORKLOADS)
    for workload, lines in zip(run.WORKLOADS, outputs):
        printed = {ln.split()[1]: ln.split()[-1] for ln in lines[:-2]}
        assert all(ln.startswith(workload + " ") for ln in lines[:-2])
        assert printed == expected
        meta = json.loads(lines[-2])["meta"]
        for key in ("nproc", "python", "numpy", "blas", "blas_threads", "seed",
                    "git_commit", "src_loc"):
            assert key in meta
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, done.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def _run_fast(tmp_path, name, seed=5):
    wl = run.WORKLOADS[name](tmp_path, seed, run.FAST, False)
    for argv in wl.commands:
        assert cli.main(argv) == 0
    assert wl.check() == []
    return wl


def _edit_csv(path, row_index, **changes):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    for key, change in changes.items():
        rows[row_index][key] = change(rows[row_index][key])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _bump(value):
    return repr(float(value) * (1 + 1e-5))


def test_perturbed_estimate_fails_the_check(tmp_path):
    wl = _run_fast(tmp_path, "large_n")
    _edit_csv(tmp_path / "fit" / "estimates.csv", 1, corrected=_bump)
    assert any("corrected w1_level0" in p for p in wl.check())


def test_nonpositive_variance_fails_the_check(tmp_path):
    wl = _run_fast(tmp_path, "large_n")
    _edit_csv(tmp_path / "fit" / "estimates.csv", 0, variance=lambda v: "-" + v)
    assert any("variance intercept" in p for p in wl.check())


def test_flipped_failure_count_fails_the_check(tmp_path):
    wl = _run_fast(tmp_path, "grid_serial")
    _edit_csv(tmp_path / "sim" / "eqp.csv", 3,
              failures=lambda v: str(int(v) + 1), replicates=lambda v: str(int(v) - 1))
    assert any("failures/replicates" in p for p in wl.check())


def test_perturbed_eqp_fails_the_check(tmp_path):
    wl = _run_fast(tmp_path, "grid_serial")
    _edit_csv(tmp_path / "sim" / "eqp.csv", 40, eqp=_bump)
    assert any(" eqp " in p for p in wl.check())


def test_a_failed_check_gives_a_nonzero_exit(monkeypatch, capsys):
    def corrupted(*args):
        wl = run.large_n_workload(*args)
        wl.check = lambda: ["corrupted output"]
        return wl

    monkeypatch.setitem(run.WORKLOADS, "large_n", corrupted)
    assert run.main(["--workload", "large_n", "--seconds", "0.1", "--trace", "1",
                     "--fast"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_reference_check_holds_failure_counts_exactly():
    ref = (BENCH_DIR / "reference" / "eqp_grid.csv").read_text()
    rows = list(csv.DictReader(ref.splitlines()))
    assert any(int(r["failures"]) > 0 for r in rows), "the grid should exercise the rank guard"
    assert oracle.check_reference(
        BENCH_DIR / "reference" / "eqp_grid.csv", ref, run.EQP_KEYS,
        ("failures", "replicates"), ("eqp", "mcse")) == []
    i = next(i for i, r in enumerate(rows) if int(r["failures"]) > 0)
    lines = ref.splitlines()
    cells = lines[i + 1].split(",")
    cells[-2], cells[-1] = str(int(cells[-2]) - 1), str(int(cells[-1]) + 1)
    lines[i + 1] = ",".join(cells)
    problems = oracle.check_reference(
        BENCH_DIR / "reference" / "eqp_grid.csv", "\n".join(lines) + "\n", run.EQP_KEYS,
        ("failures", "replicates"), ("eqp", "mcse"))
    assert any("failures" in p for p in problems)


def test_tracer_counts_errors_at_layer_boundaries_and_restores_functions():
    original = estimators.ols_fit
    tr = tracer.Tracer()
    tr.install()
    try:
        assert simkit.ols_fit is estimators.ols_fit is not original
        with pytest.raises(RankDeficient):
            estimators.ols_fit(np.ones((5, 2)), np.arange(5.0))
    finally:
        tr.uninstall()
    assert estimators.ols_fit is original and simkit.ols_fit is original
    stats = tracer.layer_stats(tr.take())
    assert stats["layers"]["estimators"]["errors"] == 1
    assert stats["layers"]["estimators"]["calls"] == 1
    assert stats["rows"]["estimators.ols_fit"] == 5
