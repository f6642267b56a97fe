"""Command-line surface: fit, simulate, diagnose, scenario-tables.

All tabular IO is CSV, configuration is JSON (``--config`` file plus flag
overrides), charts are generated SVG.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .categorical import CategoricalSpec, ObservedDataset, encode_dummy, validate_dataset
from .charts import line_chart
from .diagnostics import conditional_bias, variance_report
from .errors import MiscorrError, NumericalError, ValidationError
from .estimators import fit_corrected
from .misclass import SCENARIO_THETAS, estimate_marginal
from .simkit import (
    ScenarioConfig,
    intercept_variance_curve,
    replicate_designs,
    replicate_response,
    run_grid,
)

FMT = "%.17g"  # round-trips IEEE doubles


class CliError(ValidationError):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _fmt(x: float) -> str:
    return FMT % x


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError("CONFIG_MISSING", f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise CliError("CONFIG_INVALID", f"bad JSON in {path}: {exc}") from exc


def _resolve(args: argparse.Namespace, cfg: dict, key: str, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _read_matrix(path: str, code: str) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise CliError(code, f"file not found: {path}")
    rows = []
    with open(p, newline="") as fh:
        for row in csv.reader(fh):
            row = [c for c in row if c.strip() != ""]
            if row:
                rows.append([float(c) for c in row])
    if not rows:
        raise CliError(code, f"empty file: {path}")
    return np.array(rows)


def _read_vector(path: str, code: str) -> np.ndarray:
    return _read_matrix(path, code).ravel()


def _load_labels(data_path: str) -> dict | None:
    sidecar = Path(data_path).with_name("labels.json")
    if sidecar.exists():
        return json.loads(sidecar.read_text())
    return None


def _read_dataset(path: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    p = Path(path)
    if not p.exists():
        raise CliError("DATA_MISSING", f"data file not found: {path}")
    labels = _load_labels(path)
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip().lower() != "y":
            raise CliError("DATA_INVALID", "expected header y,w1..wK")
        wcols = [h.strip() for h in header[1:]]
        y = []
        w = []
        for row in reader:
            if not row:
                continue
            y.append(float(row[0]))
            cats = []
            for name, cell in zip(wcols, row[1:]):
                cell = cell.strip()
                if labels and name in labels:
                    try:
                        cats.append(labels[name].index(cell))
                    except ValueError as exc:
                        raise CliError(
                            "DATA_INVALID", f"unknown label {cell!r} in column {name}"
                        ) from exc
                else:
                    cats.append(int(float(cell)))
            w.append(cats)
    if not y:
        raise CliError("DATA_INVALID", f"no data rows in {path}")
    return np.array(y), np.array(w, dtype=int), wcols


def _split_paths(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


def _load_mechanism(args, cfg, n_covariates: int):
    theta_arg = _resolve(args, cfg, "theta")
    if not theta_arg:
        raise CliError("THETA_MISSING", "at least one theta matrix is required")
    theta_paths = _split_paths(theta_arg)
    if len(theta_paths) == 1 and n_covariates > 1:
        theta_paths = theta_paths * n_covariates
    if len(theta_paths) != n_covariates:
        raise CliError(
            "THETA_MISSING",
            f"need {n_covariates} theta matrices, got {len(theta_paths)}",
        )
    thetas = [_read_matrix(tp, "THETA_MISSING") for tp in theta_paths]
    return thetas


def _load_marginals(args, cfg, thetas, w: np.ndarray):
    p_arg = _resolve(args, cfg, "p")
    estimate = bool(_resolve(args, cfg, "estimate-p", False))
    if p_arg:
        p_paths = _split_paths(p_arg)
        if len(p_paths) == 1 and len(thetas) > 1:
            p_paths = p_paths * len(thetas)
        if len(p_paths) != len(thetas):
            raise CliError("P_MISSING", "marginal file count does not match thetas")
        return [_read_vector(pp, "P_MISSING") for pp in p_paths], {}
    if estimate:
        ps = []
        residuals = {}
        for k, theta in enumerate(thetas):
            freq = np.bincount(w[:, k], minlength=theta.shape[0]).astype(float)
            freq /= freq.sum()
            p, resid = estimate_marginal(theta, freq)
            ps.append(p)
            residuals[f"w{k + 1}"] = resid
        return ps, residuals
    raise CliError("P_MISSING", "supply --p files or --estimate-p")


def _out_dir(args, cfg) -> Path:
    out = Path(_resolve(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(out: Path, resolved: dict) -> None:
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _param_names(spec: CategoricalSpec) -> list[str]:
    names = ["intercept"]
    for k, lk in enumerate(spec.levels):
        for level in range(lk - 1):
            names.append(f"w{k + 1}_level{level}")
    return names


def cmd_fit(args, cfg) -> int:
    y, w, _ = _read_dataset(_require(args, cfg, "data", "DATA_MISSING"))
    thetas = _load_mechanism(args, cfg, w.shape[1])
    spec = CategoricalSpec(tuple(t.shape[0] for t in thetas))
    ds = ObservedDataset(y=y, w=w)
    report = validate_dataset(spec, ds)
    if not report.ok:
        raise CliError("DATA_INVALID", "; ".join(report.errors))
    ps, p_residuals = _load_marginals(args, cfg, thetas, w)

    bundle = encode_dummy(spec, w)
    fit = fit_corrected(spec, ds, thetas, ps, bundle)
    var = variance_report(bundle.design_star, fit.blocks, fit.pi_rows, fit.naive.sigma2_w)
    names = _param_names(spec)
    var_diag = np.diag(var.var_beta_c_star).copy()
    var_diag[0] = var.var_beta0_c

    out = _out_dir(args, cfg)
    lines = ["parameter,naive,corrected,variance"]
    for name, nv, cv, vd in zip(names, fit.naive.gamma_star, fit.beta_full, var_diag):
        lines.append(f"{name},{_fmt(nv)},{_fmt(cv)},{_fmt(vd)}")
    (out / "estimates.csv").write_text("\n".join(lines) + "\n")

    diag = {
        "n": ds.n,
        "n_params": spec.n_params,
        "sigma2_w": fit.naive.sigma2_w,
        "condition_sigma_w": float(np.linalg.cond(fit.blocks.sigma_w)),
        "condition_correction": float(np.linalg.cond(fit.blocks.correction)),
        "warnings": list(report.warnings),
        "estimated_p_residuals": p_residuals,
    }
    (out / "diagnostics.json").write_text(json.dumps(diag, indent=2) + "\n")
    _echo_config(out, {"command": "fit", "n": ds.n, "levels": list(spec.levels)})
    return 0


def _require(args, cfg, key, code):
    val = _resolve(args, cfg, key)
    if not val:
        raise CliError(code, f"--{key} is required")
    return val


def _scenario_config_from(args, cfg) -> ScenarioConfig:
    levels_arg = _resolve(args, cfg, "levels", "random")
    if isinstance(levels_arg, str) and levels_arg != "random":
        levels = tuple(int(v) for v in levels_arg.split(","))
    elif isinstance(levels_arg, (list, tuple)):
        levels = tuple(int(v) for v in levels_arg)
    elif isinstance(levels_arg, int):
        levels = (levels_arg,)
    else:
        levels = None
    n_grid = _resolve(args, cfg, "n-grid")
    if isinstance(n_grid, str):
        n_grid = [int(v) for v in n_grid.split(",")]
    sigmas = _resolve(args, cfg, "sigmas")
    if isinstance(sigmas, str):
        sigmas = [float(v) for v in sigmas.split(",")]
    kwargs = dict(
        distortion=_require(args, cfg, "scenario", "SCENARIO_MISSING"),
        n_covariates=int(_resolve(args, cfg, "k", 1)),
        levels=levels,
        replicates=int(_resolve(args, cfg, "replicates", 300)),
        master_seed=int(_resolve(args, cfg, "seed", 0)),
    )
    if n_grid:
        kwargs["n_grid"] = tuple(n_grid)
    if sigmas:
        kwargs["sigma_list"] = tuple(sigmas)
    return ScenarioConfig(**kwargs)


def _threads(args, cfg) -> int:
    val = _resolve(args, cfg, "threads")
    if val is None:
        val = os.environ.get("MISCORR_THREADS", 1)
    return max(1, int(val))


def _dump_data(config: ScenarioConfig, out: Path) -> None:
    """Write replicate 0 at the largest n, one file per sigma, with the
    matching theta and p matrices."""
    spec, thetas, ps, x, w = replicate_designs(config, 0)
    n = max(config.n_grid)
    for k, (theta, p) in enumerate(zip(thetas, ps)):
        np.savetxt(out / f"theta_w{k + 1}.csv", theta, delimiter=",", fmt=FMT)
        np.savetxt(out / f"p_w{k + 1}.csv", p[None, :], delimiter=",", fmt=FMT)
    for sigma in config.sigma_list:
        y = replicate_response(config, 0, spec, x, sigma)
        header = "y," + ",".join(f"w{k + 1}" for k in range(spec.n_covariates))
        lines = [header]
        for i in range(n):
            lines.append(
                _fmt(y[i]) + "," + ",".join(str(int(v)) for v in w[i])
            )
        (out / f"data_sigma{sigma:g}.csv").write_text("\n".join(lines) + "\n")


def cmd_simulate(args, cfg) -> int:
    config = _scenario_config_from(args, cfg)
    threads = _threads(args, cfg)
    out = _out_dir(args, cfg)
    table = run_grid(config, threads=threads)
    (out / "eqp.csv").write_text(table.to_csv())
    if _resolve(args, cfg, "dump-data", False):
        _dump_data(config, out)

    for sigma in config.sigma_list:
        series = {}
        for method in ("none", "partial", "full"):
            series[method] = [
                (r.n, r.eqp)
                for r in table.records
                if r.method == method and r.sigma == sigma and np.isfinite(r.eqp)
            ]
        title = (
            f"EQP, {config.distortion} distortion, K={config.n_covariates}, "
            f"sigma={sigma:g}"
        )
        name = f"eqp_{config.distortion}_K{config.n_covariates}_sigma{sigma:g}.svg"
        (out / name).write_text(line_chart(series, title, y_label="EQP"))

    _echo_config(
        out,
        {
            "command": "simulate",
            "scenario": config.distortion,
            "k": config.n_covariates,
            "levels": "random" if config.levels is None else list(config.levels),
            "n_grid": list(config.n_grid),
            "sigmas": list(config.sigma_list),
            "replicates": config.replicates,
            "seed": config.master_seed,
            "threads": threads,
        },
    )
    return 0


def cmd_diagnose(args, cfg) -> int:
    out = _out_dir(args, cfg)
    if _resolve(args, cfg, "variance-sim", False):
        return _cmd_diagnose_variance_sim(args, cfg, out)

    y, w, _ = _read_dataset(_require(args, cfg, "data", "DATA_MISSING"))
    thetas = _load_mechanism(args, cfg, w.shape[1])
    spec = CategoricalSpec(tuple(t.shape[0] for t in thetas))
    ps, _ = _load_marginals(args, cfg, thetas, w)
    truth_path = _resolve(args, cfg, "truth")
    if not truth_path:
        raise CliError("TRUTH_REQUIRED", "bias diagnostics need a --truth file")
    beta_star = _read_vector(truth_path, "TRUTH_REQUIRED")
    if len(beta_star) != spec.n_params:
        raise CliError(
            "TRUTH_REQUIRED",
            f"truth length {len(beta_star)} does not match {spec.n_params} parameters",
        )

    bundle = encode_dummy(spec, w)
    fit = fit_corrected(spec, ObservedDataset(y=y, w=w), thetas, ps, bundle)
    pi_star = np.hstack([np.ones((len(y), 1)), fit.pi_rows])
    bias = conditional_bias(bundle.design_star, pi_star, fit.blocks.z_star, beta_star)

    plugin = _resolve(args, cfg, "plugin-sigma")
    sigma2 = fit.naive.sigma2_w if plugin is None else float(plugin) ** 2
    var = variance_report(bundle.design_star, fit.blocks, fit.pi_rows, sigma2)

    names = _param_names(spec)
    lines = ["parameter,bias"]
    for name, b in zip(names, bias.b_star):
        lines.append(f"{name},{_fmt(b)}")
    lines.append(f"intercept_corrected,{_fmt(bias.b0)}")
    (out / "bias.csv").write_text("\n".join(lines) + "\n")

    lines = ["parameter,var_naive,var_corrected"]
    for i, name in enumerate(names):
        lines.append(
            f"{name},{_fmt(var.var_gamma_star[i, i])},{_fmt(var.var_beta_c_star[i, i])}"
        )
    lines.append(f"intercept_corrected,,{_fmt(var.var_beta0_c)}")
    (out / "variance.csv").write_text("\n".join(lines) + "\n")
    _echo_config(out, {"command": "diagnose", "sigma2": sigma2})
    return 0


def _cmd_diagnose_variance_sim(args, cfg, out: Path) -> int:
    config = _scenario_config_from(args, cfg)
    sigma = float(_resolve(args, cfg, "sigma", 0.2))
    points = intercept_variance_curve(config, sigma)
    lines = ["n,theoretical,empirical"]
    for pt in points:
        lines.append(f"{pt.n},{_fmt(pt.theoretical)},{_fmt(pt.empirical)}")
    (out / "intercept_variance.csv").write_text("\n".join(lines) + "\n")
    series = {
        "theoretical": [(p.n, p.theoretical) for p in points],
        "empirical": [(p.n, p.empirical) for p in points],
    }
    (out / "intercept_variance.svg").write_text(
        line_chart(
            series,
            f"Corrected-intercept variance, {config.distortion} distortion",
            y_label="variance",
        )
    )
    _echo_config(
        out,
        {
            "command": "diagnose",
            "variance_sim": True,
            "scenario": config.distortion,
            "sigma": sigma,
            "replicates": config.replicates,
            "seed": config.master_seed,
        },
    )
    return 0


def cmd_scenario_tables(args, cfg) -> int:
    for (level, lk), rows in sorted(SCENARIO_THETAS.items()):
        print(f"# {level} distortion, L={lk}")
        for row in rows:
            print(",".join(f"{v:g}" for v in row))
        print()
    print("# note: high distortion is defined only for L=4")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miscorr",
        description="Bias correction for least squares with misclassified "
        "categorical covariates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override")
        sp.add_argument("--out", help="output directory (default: .)")

    p_fit = sub.add_parser("fit", help="fit and correct estimates from a dataset")
    common(p_fit)
    p_fit.add_argument("--data", help="CSV with header y,w1..wK")
    p_fit.add_argument("--theta", help="comma-separated theta CSV files, one per covariate")
    p_fit.add_argument("--p", help="comma-separated marginal CSV files")
    p_fit.add_argument("--estimate-p", action="store_const", const=True, default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run the simulation study grid")
    common(p_sim)
    p_sim.add_argument("--scenario", choices=["low", "medium", "high"])
    p_sim.add_argument("--k", type=int, help="number of covariates")
    p_sim.add_argument("--levels", help="comma-separated L_k values or 'random'")
    p_sim.add_argument("--n-grid", help="comma-separated sample sizes")
    p_sim.add_argument("--sigmas", help="comma-separated noise standard deviations")
    p_sim.add_argument("--replicates", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--threads", type=int)
    p_sim.add_argument("--dump-data", action="store_const", const=True, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="bias and variance diagnostics")
    common(p_diag)
    p_diag.add_argument("--data")
    p_diag.add_argument("--theta")
    p_diag.add_argument("--p")
    p_diag.add_argument("--estimate-p", action="store_const", const=True, default=None)
    p_diag.add_argument("--truth", help="CSV with the true parameter vector")
    p_diag.add_argument("--plugin-sigma", type=float, help="known noise sd to plug in")
    p_diag.add_argument(
        "--variance-sim",
        action="store_const",
        const=True,
        default=None,
        help="compare theoretical vs empirical intercept variance per n",
    )
    p_diag.add_argument("--scenario", choices=["low", "medium", "high"])
    p_diag.add_argument("--k", type=int)
    p_diag.add_argument("--levels")
    p_diag.add_argument("--n-grid")
    p_diag.add_argument("--sigma", type=float)
    p_diag.add_argument("--replicates", type=int)
    p_diag.add_argument("--seed", type=int)
    p_diag.set_defaults(func=cmd_diagnose)

    p_tab = sub.add_parser("scenario-tables", help="print the theta presets as CSV")
    p_tab.set_defaults(func=cmd_scenario_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config_file(getattr(args, "config", None))
        return args.func(args, cfg)
    except NumericalError as exc:
        _emit_error(exc)
        return 3
    except MiscorrError as exc:
        _emit_error(exc)
        return 2


def _emit_error(exc: MiscorrError) -> None:
    code = getattr(exc, "code", "ERROR")
    sys.stderr.write(json.dumps({"error": code, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
