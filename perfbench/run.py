"""miscorr benchmark: two CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid_serial --seed 7 --seconds 50 --trace 0

``--workload all`` runs every workload in turn.

The benchmark imports the package from ``src/`` of the checkout and drives
the CLI in process through ``miscorr.cli.main(argv)``.  Inputs are made from
``--seed``; the program sees only the generated files and arguments.
BENCHMARK.json lists the workloads, with the reason for each.  A grid on two
threads is not timed: run_grid's thread pool is the noisiest path on a small shared
machine, so it is run once per grid_serial run, outside the timed region, and
its output must equal the one-thread output byte for byte.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``wall_rel`` (median over the passes of the wall time of the workload's
command sequence divided by that of a fixed reference kernel timed just
before it, see ``run_timed``; the passes' own wall times in seconds are
recorded in the metadata), ``setup_s`` (median time for a fresh interpreter to import
``miscorr.cli`` and build the parser) and ``peak_rss_mb`` (peak resident
set of a fresh process running the sequence once).

``--trace 1`` reports the per-layer metrics: for ``--seconds`` it alternates
an untraced pass and a traced one, which wraps every public function of the
package's modules (see ``tracer.py``).  ``trace.overhead_frac`` is the median
over these pairs of (traced - untraced) / untraced.  Counts are per command
sequence.

Every run checks the outputs against a numpy oracle (``oracle.py``), at the
default seed also against outputs recorded in ``reference/``.
The last line of standard output is the JSON result; the line before it
holds the run metadata.  Work files go to ``.perfbench_work/`` in the
checkout.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy loads; child processes inherit it,
# so the only threads are the workload's own --threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 7

GRID_N = (8, 12, 16, 24, 36) + tuple(range(50, 501, 25))
GRID_SIGMAS = (0.1, 0.2, 0.5, 1.0)
LARGE_N_LEVELS = (3, 4, 2)
LARGE_N_LABELS = {"w2": ["alpha", "bravo", "charlie", "delta"]}

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{
        f"{layer}.{stat}": unit
        for layer in tracer.LAYERS
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))
    },
    "moments.builds_per_replicate": "ratio",
    "misclass.validations_per_replicate": "ratio",
    "categorical.rows_encoded_per_row_fitted": "ratio",
    "estimators.rows_fitted": "count",
    "simkit.designs_per_replicate": "ratio",
    "cli.bytes_read": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    grid_replicates: int
    large_n_rows: int
    setup_runs: int
    min_samples: int


FULL = Sizes(grid_replicates=24, large_n_rows=300_000,
             setup_runs=7, min_samples=5)
FAST = Sizes(grid_replicates=2, large_n_rows=3_000,
             setup_runs=1, min_samples=1)


@dataclass
class Workload:
    """A fixed command sequence plus what the checks need to know."""

    commands: list  # argv lists for miscorr.cli.main
    out_dirs: list  # directories the commands write
    replicates: int  # replicates estimated by one pass of the sequence
    check: Callable[[], list]  # returns the problems found in the outputs
    work: dict  # seed-dependent size of one pass, recorded with the result


def _grid_args(seed, replicates, threads, out):
    return [
        "simulate", "--scenario", "medium", "--k", "3", "--levels", "random",
        "--n-grid", ",".join(map(str, GRID_N)),
        "--sigmas", ",".join(map(str, GRID_SIGMAS)),
        "--replicates", str(replicates), "--seed", str(seed),
        "--threads", str(threads), "--out", str(out),
    ]


def _truth(n_slopes):
    return 0.5 + 0.2 * np.arange(n_slopes + 1)


def _grid_config(seed, replicates):
    from miscorr.simkit import ScenarioConfig

    return ScenarioConfig(
        "medium", n_covariates=3, levels=None, n_grid=GRID_N,
        sigma_list=GRID_SIGMAS, replicates=replicates, master_seed=seed,
    )


def grid_oracle(seed, replicates):
    """(n, sigma, method) -> (mean EQP, failures), estimated by the oracle
    on the replicate data of the program's seeded generator."""
    from miscorr.simkit import replicate_designs, replicate_response

    config = _grid_config(seed, replicates)
    scores = {(n, s): [] for n in GRID_N for s in GRID_SIGMAS}
    for rep in range(replicates):
        spec, thetas, ps, x, w = replicate_designs(config, rep)
        beta = _truth(spec.n_slopes)
        for sigma in GRID_SIGMAS:
            y = replicate_response(config, rep, spec, x, sigma)
            for n in GRID_N:
                est = oracle.estimates(spec.levels, thetas, ps, w[:n], y[:n])
                if est is None:
                    continue
                naive, corrected = est
                partial = np.concatenate([[naive[0]], corrected[1:]])
                scores[(n, sigma)].append(
                    [float(np.mean((beta - b) ** 2 / beta)) for b in (naive, partial, corrected)]
                )
    expected = {}
    for (n, sigma), rows in scores.items():
        means = np.mean(rows, axis=0) if rows else [float("nan")] * 3
        for method, value in zip(("none", "partial", "full"), means):
            expected[(n, sigma, method)] = (float(value), replicates - len(rows))
    return expected


def _reference_check(path, name, keys, exact, approx):
    ref = REFERENCE / name
    if not ref.exists():
        return [f"missing reference {ref}"]
    return oracle.check_reference(path, ref.read_text(), keys, exact, approx)


EQP_KEYS = ("distortion", "K", "levels", "n", "sigma", "method")


def grid_workload(work, seed, sizes, at_reference) -> Workload:
    from miscorr.simkit import replicate_designs

    out = work / "sim"
    reps = sizes.grid_replicates
    config = _grid_config(seed, reps)
    # the seed draws each replicate's levels, so the design width varies
    columns = sum(1 + replicate_designs(config, r)[0].n_slopes for r in range(reps))

    def check():
        eqp = out / "eqp.csv"
        problems = oracle.check_eqp(eqp, grid_oracle(seed, reps), reps)
        if at_reference:
            problems += _reference_check(
                eqp, "eqp_grid.csv", EQP_KEYS, ("failures", "replicates"), ("eqp", "mcse")
            )
        pooled = work / "sim_threads"
        rc = _cli_main(_grid_args(seed, reps, 2, pooled))
        if rc != 0 or (pooled / "eqp.csv").read_bytes() != eqp.read_bytes():
            problems.append(f"{eqp}: differs from the same grid on two threads")
        return problems

    return Workload(
        commands=[_grid_args(seed, reps, 1, out)],
        out_dirs=[out], replicates=reps, check=check,
        work={"replicates": reps, "design_columns": columns},
    )


def write_large_n_inputs(work: Path, seed: int, rows: int) -> dict:
    """Seeded dataset for fit/diagnose: data.csv (y as plain decimal text,
    w2 as string labels through labels.json), theta/p files, truth.csv."""
    rng = np.random.default_rng([seed, 300])
    levels = LARGE_N_LEVELS
    thetas = [0.7 * np.eye(lk) + 0.3 * rng.dirichlet(np.ones(lk), size=lk) for lk in levels]
    ps = [rng.dirichlet(np.full(lk, 5.0)) for lk in levels]
    beta = rng.uniform(0.5, 1.5, size=1 + sum(lk - 1 for lk in levels))
    x = np.column_stack([rng.choice(lk, size=rows, p=p) for lk, p in zip(levels, ps)])
    w = np.column_stack([
        np.minimum((rng.random(rows)[:, None] > np.cumsum(t, axis=1)[x[:, k]]).sum(axis=1), lk - 1)
        for k, (lk, t) in enumerate(zip(levels, thetas))
    ])
    y_text = np.char.mod("%.6f", oracle.dummy_design(levels, x) @ beta
                         + 0.5 * rng.standard_normal(rows))
    work.mkdir(parents=True, exist_ok=True)
    names = [f"w{k + 1}" for k in range(len(levels))]
    cols = [y_text] + [
        np.array(LARGE_N_LABELS[nm])[w[:, k]] if nm in LARGE_N_LABELS else w[:, k].astype(str)
        for k, nm in enumerate(names)
    ]
    body = "\n".join(map(",".join, zip(*cols)))
    (work / "data.csv").write_text("y," + ",".join(names) + "\n" + body + "\n")
    (work / "labels.json").write_text(json.dumps(LARGE_N_LABELS))
    fmt = lambda v: "%.17g" % v  # noqa: E731
    for k, (t, p) in enumerate(zip(thetas, ps)):
        (work / f"theta_w{k + 1}.csv").write_text(
            "\n".join(",".join(map(fmt, row)) for row in t) + "\n")
        (work / f"p_w{k + 1}.csv").write_text(",".join(map(fmt, p)) + "\n")
    (work / "truth.csv").write_text(",".join(map(fmt, beta)) + "\n")
    return {"levels": levels, "thetas": thetas, "ps": ps, "w": w,
            "y": y_text.astype(float), "beta": beta}


def large_n_workload(work, seed, sizes, at_reference) -> Workload:
    data = write_large_n_inputs(work, seed, sizes.large_n_rows)
    k = len(LARGE_N_LEVELS)
    files = ["--data", str(work / "data.csv"),
             "--theta", ",".join(str(work / f"theta_w{i + 1}.csv") for i in range(k)),
             "--p", ",".join(str(work / f"p_w{i + 1}.csv") for i in range(k))]
    fit_out, diag_out = work / "fit", work / "diagnose"

    def check():
        naive, corrected = oracle.estimates(
            data["levels"], data["thetas"], data["ps"], data["w"], data["y"])
        b_star, b0 = oracle.conditional_bias(
            data["levels"], data["thetas"], data["ps"], data["w"], data["beta"])
        problems = oracle.check_estimates(fit_out / "estimates.csv", naive, corrected)
        problems += oracle.check_bias(diag_out / "bias.csv", b_star, b0)
        problems += oracle.check_variance_table(diag_out / "variance.csv", len(naive))
        if at_reference:
            problems += _reference_check(
                diag_out / "bias.csv", "bias_large_n.csv", ("parameter",), (), ("bias",))
        return problems

    return Workload(
        commands=[["fit", *files, "--out", str(fit_out)],
                  ["diagnose", *files, "--truth", str(work / "truth.csv"),
                   "--out", str(diag_out)]],
        out_dirs=[fit_out, diag_out], replicates=2, check=check,
        work={"rows": sizes.large_n_rows,
              "design_columns": 1 + sum(lk - 1 for lk in LARGE_N_LEVELS)},
    )


WORKLOADS = {
    "grid_serial": grid_workload,
    "large_n": large_n_workload,
}


def _cli_main(argv) -> int:
    import miscorr.cli

    return miscorr.cli.main(argv)  # looked up per call, so tracing sees it


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


SETUP_CHILD = "import miscorr.cli; miscorr.cli.build_parser()"
RSS_CHILD = """
import json, resource, sys
import miscorr.cli
try:
    codes = [miscorr.cli.main(argv) for argv in json.loads(sys.argv[1])]
finally:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(any(codes))
"""


def measure_setup(runs: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    building its parser; one untimed run first compiles the bytecode."""
    times = []
    for i in range(runs + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CHILD], env=_child_env(),
                       cwd=ROOT, check=True)
        if i:
            times.append(perf_counter() - t0)
    return statistics.median(times)


def measure_peak_rss(commands) -> tuple[float, str]:
    """Peak resident set, in MiB, of a fresh process running the command
    sequence once (it varies by well under 1% between runs), and the
    process's error output if the sequence failed there."""
    done = subprocess.run([sys.executable, "-c", RSS_CHILD, json.dumps(commands)],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True)
    return int(done.stdout.split()[-1]) / 1024, done.stderr if done.returncode else ""


def _read_chars() -> tuple[int, int]:
    """Bytes this process has read through read(2) so far, and the size of
    this probe's own read, which the next probe will count."""
    try:
        with open("/proc/self/io") as fh:
            text = fh.read()
    except OSError:
        return 0, 0
    for line in text.splitlines():
        if line.startswith("rchar:"):
            return int(line.split()[1]), len(text)
    return 0, 0


class Runner:
    """Runs a workload's sequence in process and keeps every pass's figures."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.last_bytes_read = 0

    def once(self) -> float:
        read0, probe = _read_chars()
        t0 = perf_counter()
        for argv in self.wl.commands:
            self.attempted += 1
            try:
                rc = _cli_main(argv)
            except Exception:  # a crash counts as a failed invocation
                traceback.print_exc()
                rc = None
            if rc != 0:
                self.failed += 1
        elapsed = perf_counter() - t0
        self.last_bytes_read = _read_chars()[0] - read0 - probe
        self.digests.add(self._digest())
        return elapsed

    def _digest(self) -> str:
        h = hashlib.sha256()
        for d in self.wl.out_dirs:
            for f in sorted(Path(d).glob("*")):
                h.update(f.name.encode() + f.read_bytes())
        return h.hexdigest()


def layer_metrics(spans, wl: Workload, bytes_read) -> dict:
    st = tracer.layer_stats(spans)
    calls, rows = st["calls"], st["rows"]
    out = {}
    for layer, s in st["layers"].items():
        for stat, value in s.items():
            out[f"{layer}.{stat}"] = value
    reps = wl.replicates
    fitted = rows.get("estimators.ols_fit", 0)
    out["moments.builds_per_replicate"] = calls.get("moments.build_moment_blocks", 0) / reps
    out["misclass.validations_per_replicate"] = (
        calls.get("misclass.check_theta", 0) + calls.get("misclass.check_marginal", 0)
    ) / reps
    out["categorical.rows_encoded_per_row_fitted"] = (
        rows.get("categorical.encode_dummy", 0) / fitted if fitted else 0.0
    )
    out["estimators.rows_fitted"] = fitted
    out["simkit.designs_per_replicate"] = calls.get("simkit.replicate_designs", 0) / reps
    out["cli.bytes_read"] = bytes_read
    return out


def reference_kernel() -> float:
    """A fixed piece of work that runs no miscorr code, in the mix the
    workloads run: small least-squares solves, Python loops and CSV text
    parsing.  It takes about 0.2 s."""
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(3000):
        a = rng.random((50, 6))
        acc += np.linalg.lstsq(a, a[:, 0], rcond=None)[0].sum()
        acc += np.linalg.solve(a.T @ a, a[0]).sum()
    text = "\n".join(f"{i * 0.37:.6f},alpha,{i % 3},{i % 2}" for i in range(80_000))
    for line in text.splitlines():
        y, label, a1, _ = line.split(",")
        acc += float(y) + int(a1) + (label == "alpha")
    return acc


def run_timed(runner: Runner, seconds: float, min_samples: int):
    """Alternate the reference kernel and a pass of the workload for
    ``seconds``, after one warm-up of each; return both lists of times.

    The vCPUs of a shared machine run up to 1.7 times slower for minutes at
    a time while other tenants are busy, and such a spell slows the kernel
    and the pass alike.  So a pass's time over the kernel's time just before
    it is steady across runs where the pass's time alone is not."""
    reference_kernel()
    runner.once()
    kernel, passes = [], []
    t_end = perf_counter() + seconds
    while len(passes) < min_samples or perf_counter() + kernel[-1] + passes[-1] <= t_end:
        t0 = perf_counter()
        reference_kernel()
        kernel.append(perf_counter() - t0)
        passes.append(runner.once())
    return kernel, passes


def run_traced(runner: Runner, seconds: float, min_samples: int, spans_path: Path):
    """Alternate an untraced and a traced pass for ``seconds``; the layer
    counters come from the traced passes, the overhead from each pair."""
    tr = tracer.Tracer()
    runner.once()  # warm-up
    tr.install()
    try:
        runner.once()  # warm-up with the wrappers in place
    finally:
        tr.uninstall()
    tr.take()
    pairs, per_sample, first_spans = [], [], None
    t_end = perf_counter() + seconds
    while len(pairs) < min_samples or perf_counter() + sum(pairs[-1]) <= t_end:
        untraced = runner.once()
        tr.install()
        try:
            traced = runner.once()
        finally:
            tr.uninstall()
        spans = tr.take()
        if first_spans is None:
            first_spans = spans
        per_sample.append(layer_metrics(spans, runner.wl, runner.last_bytes_read))
        pairs.append((untraced, traced))
    tracer.dump(first_spans, spans_path)
    metrics = {k: statistics.median_low(s[k] for s in per_sample) for k in per_sample[0]}
    metrics["trace.overhead_frac"] = statistics.median((t - u) / u for u, t in pairs)
    return metrics, {"trace_pairs": len(pairs)}


def _git_commit() -> str:
    """Commit of the checkout, read from its .git directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(seed) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_loc": sum(len(p.read_text().splitlines()) for p in SRC.glob("miscorr/*.py")),
    }


def import_package():
    """Import miscorr from this checkout's src/, or exit without a result."""
    if not (SRC / "miscorr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'miscorr'}")
    sys.path.insert(0, str(SRC))
    import miscorr

    if SRC.resolve() not in Path(miscorr.__file__).resolve().parents:
        sys.exit(f"perfbench: imported miscorr from {miscorr.__file__}, not {SRC}")


def run_all(args) -> int:
    """Run every workload, each in a fresh interpreter, one after another;
    exit 1 unless all of them finish and are correct."""
    ok = True
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + (["--fast"] if args.fast else []),
                              capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        ok = ok and done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true",
                    help="tiny inputs and one set-up run, for the benchmark's tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()

    sizes = FAST if args.fast else FULL
    at_reference = args.seed == DEFAULT_SEED and not args.fast
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed, sizes, at_reference)
    runner = Runner(wl)

    problems = []
    if args.trace:
        metrics, info = run_traced(runner, args.seconds, sizes.min_samples,
                                   work / "spans.jsonl")
        units = PER_LAYER
    else:
        setup_s = measure_setup(sizes.setup_runs)
        peak, rss_error = measure_peak_rss(wl.commands)
        if rss_error:
            problems.append(f"fresh-process run failed: {rss_error.strip()}")
        kernel, passes = run_timed(runner, args.seconds, sizes.min_samples)
        metrics = {"wall_rel": statistics.median(p / k for p, k in zip(passes, kernel)),
                   "setup_s": setup_s, "peak_rss_mb": peak}
        info = {"samples": len(passes), "wall_s_median": statistics.median(passes),
                "wall_s_min": min(passes), "kernel_s_median": statistics.median(kernel),
                "wall_s_all": passes, "kernel_s_all": kernel}
        units = END_TO_END

    try:
        problems += wl.check()
    except Exception as exc:  # missing or unreadable outputs
        problems.append(f"checking the outputs raised {exc!r}")
    if len(runner.digests) != 1:
        problems.append(f"outputs differ between passes ({len(runner.digests)} variants)")
    for p in problems:
        print(f"perfbench: INCORRECT {p}", file=sys.stderr)

    result = {
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    meta = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            **metadata(args.seed), "work": wl.work, **info}
    (work / "result.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    for k, u in units.items():
        print(f"{args.workload} {k} = {metrics[k]:.6g} {u}")
    print(json.dumps({"meta": {k: v for k, v in meta.items()
                               if k not in ("wall_s_all", "kernel_s_all")}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
