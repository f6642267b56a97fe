"""Write the outputs of a fixed set of CLI commands, for a byte-identity check.

    python3 tools/cli_outputs.py OUT

runs, in process and on this checkout's ``src/``, every command below on
seeded inputs and writes each command's files to its own directory under
OUT.  To show that a change leaves every output byte-identical, run the
script in a checkout of the parent and in the changed one, then
``diff -r`` the two OUT directories.

The commands: ``fit``, ``fit --estimate-p`` and ``diagnose`` on the
benchmark's ``large_n`` inputs at 30,000 rows; ``fit`` on the same data with
every labelled cell quoted and space-padded, whose ``estimates.csv`` must
equal the plain ``fit``'s; the benchmark's ``simulate`` grid with
``--dump-data``; ``diagnose --variance-sim``; and ``simulate`` under high
distortion with the default random levels, once from flags and once from a
``--config`` file whose seed a flag overrides.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import (  # noqa: E402  (pins BLAS)
    LARGE_N_LABELS,
    LARGE_N_LEVELS,
    _grid_args,
    write_large_n_inputs,
)

import miscorr.cli  # noqa: E402

SEED = 7
ROWS = 30_000


def write_padded_labels(inputs: Path, to: Path) -> Path:
    """The inputs' data.csv with every cell of a labels.json column written
    as '" label "', and the labels.json beside it."""
    to.mkdir()
    shutil.copy(inputs / "labels.json", to)
    header, *rows = (inputs / "data.csv").read_text().splitlines()
    labelled = [name in LARGE_N_LABELS for name in header.split(",")]
    rows = [",".join(f'" {c} "' if pad else c for c, pad in zip(row.split(","), labelled))
            for row in rows]
    (to / "data.csv").write_text("\n".join([header, *rows]) + "\n")
    return to / "data.csv"


def commands(out: Path) -> dict[str, list[str]]:
    """Output directory name -> argv, with the large_n inputs in out/inputs."""
    inputs = out / "inputs"
    write_large_n_inputs(inputs, SEED, ROWS)
    k = range(1, len(LARGE_N_LEVELS) + 1)
    theta = ["--theta", ",".join(str(inputs / f"theta_w{i}.csv") for i in k)]
    data = ["--data", str(inputs / "data.csv"), *theta]
    padded = write_padded_labels(inputs, inputs / "padded")
    known_p = ["--p", ",".join(str(inputs / f"p_w{i}.csv") for i in k)]
    high = inputs / "simulate_high.json"
    high.write_text(json.dumps({"scenario": "high", "k": 2, "levels": "random",
                                "n-grid": [30, 60], "replicates": 5, "seed": 3}))
    return {
        "fit": ["fit", *data, *known_p],
        "fit_estimate_p": ["fit", *data, "--estimate-p"],
        "fit_padded_labels": ["fit", "--data", str(padded), *theta, *known_p],
        "diagnose": ["diagnose", *data, *known_p, "--truth", str(inputs / "truth.csv")],
        "simulate_grid": [*_grid_args(SEED, 24, 1, out / "simulate_grid"), "--dump-data"],
        "variance_sim": ["diagnose", "--variance-sim", "--scenario", "low", "--levels", "3",
                         "--n-grid", "50,100,200,500", "--sigma", "0.2",
                         "--replicates", "100", "--seed", "3"],
        "simulate_high": ["simulate", "--scenario", "high", "--k", "2",
                          "--n-grid", "30,60", "--replicates", "5", "--seed", "11"],
        "simulate_high_config": ["simulate", "--config", str(high), "--seed", "11"],
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit(__doc__)
    out = Path(args[0])
    shutil.rmtree(out, ignore_errors=True)
    failed = []
    for name, cmd in commands(out).items():
        if "--out" not in cmd:
            cmd = [*cmd, "--out", str(out / name)]
        if miscorr.cli.main(cmd) != 0:
            failed.append(name)
    if failed:
        sys.exit(f"cli_outputs: failed: {', '.join(failed)}")
    if ((out / "fit_padded_labels" / "estimates.csv").read_bytes()
            != (out / "fit" / "estimates.csv").read_bytes()):
        sys.exit("cli_outputs: fit_padded_labels/estimates.csv differs from fit's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
