"""Command-line surface: fit, simulate, diagnose, scenario-tables.

All tabular IO is CSV, configuration is JSON (``--config`` file plus flag
overrides), charts are generated SVG.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .categorical import CategoricalSpec, ObservedDataset, encode_cells, validate_dataset
from .charts import line_chart
from .diagnostics import conditional_bias, variance_report
from .errors import MiscorrError, NumericalError, ValidationError
from .estimators import fit_corrected
from .misclass import SCENARIO_THETAS, check_theta, estimate_marginal
from .simkit import (
    METHODS,
    ScenarioConfig,
    intercept_variance_curve,
    replicate_designs,
    replicate_responses,
    run_grid,
)

FMT = "%.17g"  # round-trips IEEE doubles
_LABEL_WIDTH = 32  # longer labels are matched only by the full-width re-read


class CliError(ValidationError):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """A usage error is CONFIG_INVALID, reported like every other error;
    --help and --version still print and exit 0."""

    def error(self, message):
        raise CliError("CONFIG_INVALID", f"{self.prog}: {message}")


def _write_csv(path: Path, header: str, rows) -> None:
    """Rows of a label then numbers, written to round-trip; None is empty."""
    cell = lambda v: v if isinstance(v, str) else "" if v is None else FMT % v  # noqa: E731
    path.write_text("\n".join([header] + [",".join(map(cell, row)) for row in rows]) + "\n")


def _open(path: str, code: str, mode: str = "r"):
    try:
        return open(path, mode)
    except OSError as exc:
        raise CliError(code, f"cannot read {path}: {exc.strerror}") from exc


def _read_json(path, missing: str, invalid: str):
    with _open(path, missing) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError included
            raise CliError(invalid, f"bad JSON in {path}: {exc}") from exc


def _int(value) -> int:
    """int() that refuses a bool (JSON true is not the number 1), a
    non-integral number or one beyond 64 bits."""
    number = int(value)
    if type(value) is bool or (type(value) is float and number != value) or abs(number) >= 2**63:
        raise ValueError(f"{value!r} is not a 64-bit integer")
    return number


def _float(value) -> float:
    """float() that refuses a bool."""
    if type(value) is bool:
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _positive(value) -> float:
    """float() that refuses a value that is not finite and above 0."""
    number = _float(value)
    if not (np.isfinite(number) and number > 0):
        raise ValueError(f"{value!r} is not finite and positive")
    return number


def _exactly(kind: type):
    """A ``kind``, taken as is: str() would make true a name, truthiness "no" a yes."""
    def parse(value):
        if not isinstance(value, kind):
            raise ValueError(f"{value!r} is not a {kind.__name__}")
        return value
    return parse


def _list_of(kind):
    """A comma-separated string, a JSON list or one value, each parsed by ``kind``."""
    def parse(value) -> tuple:
        if isinstance(value, str):
            value = value.split(",")
        return tuple(map(kind, value if isinstance(value, list) else [value]))
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _levels(value):
    """L_k per covariate, or "random" (ScenarioConfig's default) for a draw."""
    return value if value == "random" else _ints(value)


# the names argparse prints in "invalid <name> value: ..."
_int.__name__, _float.__name__, _positive.__name__, _levels.__name__ = (
    "int", "float", "positive float", "levels")
_switch, _text = _exactly(bool), _exactly(str)
_ints, _floats, _texts = _list_of(_int), _list_of(_float), _list_of(_text)


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fold the --config file into ``args``: its keys name settings of any
    sub-command, spelled like their flags; each fills a setting of this one
    that no flag set, parsed by that flag's own type.  null is unset."""
    path = getattr(args, "config", None)
    cfg = _read_json(path, "CONFIG_MISSING", "CONFIG_INVALID") if path else {}
    if not isinstance(cfg, dict):
        raise CliError("CONFIG_INVALID", f"{path} must hold a JSON object")
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = {name for cmd in sub.choices.values() for name in vars(cmd.parse_args([]))}
    if unknown := sorted(set(cfg) - {n.replace("_", "-") for n in names - {"func", "config"}}):
        raise CliError("CONFIG_INVALID", f"{path}: unknown keys {', '.join(map(repr, unknown))}")
    for action in sub.choices[args.command]._actions:
        key = action.dest.replace("_", "-")
        if (val := cfg.get(key)) is None or getattr(args, action.dest) is not None:
            continue
        try:  # the switches, store_const flags, have no type
            setattr(args, action.dest, (action.type or _switch)(val))
        except (TypeError, ValueError, OverflowError) as exc:
            raise CliError("CONFIG_INVALID", f"bad value for {key}: {val!r}") from exc


def _loadtxt(path: str, lines, names=(), ndmin=2, **kwargs) -> np.ndarray:
    """The one CSV parser: '#' is data (labels may hold it), fields may be
    double-quoted, and a parse error is DATA_INVALID naming the data row."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on empty input; callers check
            return np.loadtxt(
                lines, delimiter=",", comments=None, quotechar='"', ndmin=ndmin, **kwargs
            )
    except ValueError as exc:  # UnicodeDecodeError included
        raise _parse_error(path, names, exc) from exc


def _parse_error(path: str, names, exc: ValueError) -> CliError:
    """Restate a np.loadtxt error (its conversion errors count rows from 0)."""
    msg = str(exc)
    if m := re.search(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)", msg):
        col = int(m[3])
        name = names[col - 1] if col <= len(names) else col
        msg = f"data row {int(m[2]) + 1}, column {name}: {m[1]} is not a number"
    elif m := re.search(r"(?:changed from|requires) (\d+)\D+(\d+)\D+at row (\d+)", msg):
        msg = ("data row 1 does not match the header" if m[3] == "1" else
               f"data row {m[3]} has {m[2]} columns, not {m[1]} like the rows above it")
    return CliError("DATA_INVALID", f"{path}: {msg}")


def _read_matrix(path: str, code: str) -> np.ndarray:
    with _open(path, code) as fh:
        table = _loadtxt(path, fh, dtype=float)
    if table.size == 0:
        raise CliError(code, f"empty file: {path}")
    if not np.all(np.isfinite(table)):
        raise CliError("DATA_INVALID", f"{path}: entries must be finite")
    return table


def _load_labels(data_path: str) -> dict:
    """The labels.json sidecar: column name -> its labels in category order."""
    sidecar = Path(data_path).with_name("labels.json")
    if not sidecar.exists():
        return {}
    labels = _read_json(sidecar, "DATA_INVALID", "DATA_INVALID")
    if not isinstance(labels, dict) or not all(
        isinstance(v, list) and all(isinstance(s, str) for s in v) and len(set(v)) == len(v)
        for v in labels.values()
    ):
        raise CliError("DATA_INVALID", f"{sidecar}: expected {{column: [distinct labels]}}")
    return labels


def _match(cells: np.ndarray, labels: list[str]) -> np.ndarray:
    """The category of each cell as read, -1 where it is not exactly a label.
    Only a label shorter than the field, with no surrounding whitespace and
    no NUL (the field drops trailing NULs) can match a cell as read."""
    width = cells.dtype.itemsize // 4
    keys = sorted((s, i) for i, s in enumerate(labels)
                  if len(s) < width and s == s.strip() and "\0" not in s)
    if not keys:
        return np.full(len(cells), -1)
    texts, cats = np.array([s for s, _ in keys], cells.dtype), np.array([i for _, i in keys])
    pos = np.minimum(np.searchsorted(texts, cells), len(keys) - 1)
    return np.where(texts[pos] == cells, cats[pos], -1)


def _read_dataset(path: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """y, the n x K integer categories and the K column names of a CSV with
    header y,w1..wK.  Columns named in labels.json hold labels, the others
    integral numbers.  One parse reads a label column into a text field one
    character wider than its longest label (at most _LABEL_WIDTH), so a cell
    that matches as read is not a truncated one; only when some cell misses
    is that column re-read at full width and matched with spaces stripped."""
    labels = _load_labels(path)
    with _open(path, "DATA_MISSING", "rb") as fh:  # a text field drops trailing NULs
        nul = any(b"\0" in block for block in iter(lambda: fh.read(1 << 20), b""))
    with _open(path, "DATA_MISSING") as fh:
        names = [h.strip() for h in _loadtxt(path, islice(fh, 1), dtype=str).ravel()]
        if len(names) < 2 or names[0].lower() != "y":
            raise CliError("DATA_INVALID", f"{path}: expected header y,w1..wK")
        labelled = {j: labels[name] for j, name in enumerate(names) if j and name in labels}
        width = {j: min(max(map(len, v), default=0), _LABEL_WIDTH) + 1
                 for j, v in labelled.items()}
        dtype = np.dtype([("", f"U{width[j]}" if j in width else "f8")
                          for j in range(len(names))])
        table = _loadtxt(path, fh, names, ndmin=1, dtype=dtype)
    if len(table) == 0:
        raise CliError("DATA_INVALID", f"no data rows in {path}")
    cols, full = [table[f] for f in dtype.names], {}
    for j, col_labels in labelled.items():
        cats = cols[j] = _match(cols[j], col_labels)
        if not (miss := np.flatnonzero((cats < 0) | nul)).size:
            continue
        with _open(path, "DATA_MISSING") as fh:
            next(fh)  # the header
            full[j] = _loadtxt(path, fh, names, ndmin=1, dtype=object, usecols=j)
        index = {label: i for i, label in enumerate(col_labels)}
        cats[miss] = [index.get(cell.strip(), -1) for cell in full[j][miss]]
    if unknown := [(np.argmax(cols[j] < 0), j) for j in full if (cols[j] < 0).any()]:
        i, j = min(unknown)
        cell = repr(full[j][i])[:100]  # cut as numpy cuts a cell in its own messages
        raise CliError("DATA_INVALID", f"{path}: data row {i + 1}, column {names[j]}: "
                       f"{cell} is not in labels.json")
    table = np.array(cols, dtype=float)  # one contiguous row per column
    w = table[1:]
    ok = np.vstack([np.isfinite(table[0]), (w == np.round(w)) & (np.abs(w) <= 2**53)])
    if not ok.all():  # y must be finite, w cast exactly to int
        i, j = np.argwhere(~ok.T)[0]
        raise CliError("DATA_INVALID", f"{path}: data row {i + 1}, column {names[j]}: "
                       f"{float(table[j, i])!r} is not {'an integer' if j else 'finite'}")
    return table[0], w.T.astype(int), names[1:]


def _paths(args, key: str, k: int, code: str) -> list[str]:
    """One file per covariate, or one file shared by all of them."""
    paths = [v for v in getattr(args, key) or () if v]
    if len(paths) == 1:
        paths *= k
    if len(paths) != k:
        raise CliError(code, f"need {k} --{key} files, got {len(paths)}")
    return paths


def _load_marginals(args, thetas, level_counts):
    if any(args.p or ()):  # an empty name is no file
        if args.estimate_p:
            raise CliError("CONFIG_INVALID", "give --p files or --estimate-p, not both")
        paths = _paths(args, "p", len(thetas), "P_MISSING")
        return [_read_matrix(path, "P_MISSING").ravel() for path in paths], {}
    if not args.estimate_p:
        raise CliError("P_MISSING", "supply --p files or --estimate-p")
    ps, residuals = [], {}
    for k, (theta, counts) in enumerate(zip(thetas, level_counts)):
        p, residuals[f"w{k + 1}"] = estimate_marginal(theta, np.array(counts) / sum(counts))
        ps.append(p)
    return ps, residuals


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. a file of that name
        raise CliError("CONFIG_INVALID", f"cannot create {out}: {exc.strerror}") from exc
    return out


def _echo_config(out: Path, resolved: dict) -> None:
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _param_names(cells) -> list[str]:
    return ["intercept", *(f"w{k + 1}_level{lv}" for k, lv in cells.column_map)]


def _load_and_fit(args):
    """The input boundary shared by fit and diagnose: read the dataset and
    its mechanism files, validate, then find the occupied cells and correct."""
    y, w, names = _read_dataset(_require(args, "data", "DATA_MISSING"))
    paths = _paths(args, "theta", w.shape[1], "THETA_MISSING")
    thetas = [check_theta(_read_matrix(path, "THETA_MISSING")) for path in paths]
    spec = CategoricalSpec(tuple(t.shape[0] for t in thetas))
    ds = ObservedDataset(y=y, w=w)
    report = validate_dataset(spec, ds, names)
    if not report.ok:
        raise CliError("DATA_INVALID", "; ".join(report.errors))
    ps, p_residuals = _load_marginals(args, thetas, report.level_counts)
    cells = encode_cells(spec, w)
    fit = fit_corrected(spec, ds, thetas, ps, cells)
    return spec, ds, report, p_residuals, cells, fit


def cmd_fit(args) -> int:
    spec, ds, report, p_residuals, cells, fit = _load_and_fit(args)
    var = variance_report(cells.design_star, fit.blocks, fit.pi_rows, fit.naive.sigma2_w,
                          cells.counts)
    var_diag = [var.var_beta0_c, *np.diag(var.var_beta_c_star)[1:]]

    out = _out_dir(args)
    rows = zip(_param_names(cells), fit.naive.gamma_star, fit.beta_full, var_diag)
    _write_csv(out / "estimates.csv", "parameter,naive,corrected,variance", rows)

    diag = {
        "n": ds.n, "n_params": spec.n_params, "sigma2_w": fit.naive.sigma2_w,
        "condition_sigma_w": float(np.linalg.cond(fit.blocks.sigma_w)),
        "condition_correction": float(np.linalg.cond(fit.blocks.correction)),
        "warnings": list(report.warnings), "estimated_p_residuals": p_residuals,
    }
    (out / "diagnostics.json").write_text(json.dumps(diag, indent=2) + "\n")
    _echo_config(out, {"command": "fit", "n": ds.n, "levels": list(spec.levels)})
    return 0


def _require(args, key, code):
    if not (val := getattr(args, key)):
        raise CliError(code, f"--{key} is required")
    return val


def _scenario_config_from(args) -> ScenarioConfig:
    """The grid settings given, over ScenarioConfig's defaults (diagnose has
    no --sigmas)."""
    given = {"n_covariates": args.k, "levels": args.levels, "n_grid": args.n_grid,
             "sigma_list": getattr(args, "sigmas", None), "replicates": args.replicates,
             "master_seed": args.seed}
    return ScenarioConfig(distortion=_require(args, "scenario", "SCENARIO_MISSING"),
                          **{f: v for f, v in given.items() if v not in (None, "random")})


def _dump_data(config: ScenarioConfig, out: Path) -> None:
    """Write replicate 0 at the largest n, one file per sigma, with the
    matching theta and p matrices."""
    spec, thetas, ps, x, w = replicate_designs(config, 0)
    n = max(config.n_grid)
    for k, (theta, p) in enumerate(zip(thetas, ps)):
        np.savetxt(out / f"theta_w{k + 1}.csv", theta, delimiter=",", fmt=FMT)
        np.savetxt(out / f"p_w{k + 1}.csv", p[None, :], delimiter=",", fmt=FMT)
    header = "y," + ",".join(f"w{k + 1}" for k in range(spec.n_covariates))
    fmt = [FMT] + ["%d"] * spec.n_covariates
    ys = replicate_responses(config, 0, spec, x, config.sigma_list)
    for sigma, y in zip(config.sigma_list, ys.T):
        table = np.column_stack([y[:n], w[:n]])
        np.savetxt(out / f"data_sigma{sigma:g}.csv", table, delimiter=",", fmt=fmt,
                   header=header, comments="")


def cmd_simulate(args) -> int:
    config = _scenario_config_from(args)
    threads = max(1, args.threads or 1)
    table = run_grid(config, threads=threads)
    out = _out_dir(args)
    (out / "eqp.csv").write_text(table.to_csv())
    if args.dump_data:
        _dump_data(config, out)

    for sigma in config.sigma_list:
        series = {
            method: [(r.n, r.eqp) for r in table.records
                     if r.method == method and r.sigma == sigma and np.isfinite(r.eqp)]
            for method in METHODS
        }
        if not any(series.values()):  # every cell failed; eqp.csv holds the counts
            continue
        where = f"{config.distortion} distortion, K={config.n_covariates}, sigma={sigma:g}"
        name = f"eqp_{config.distortion}_K{config.n_covariates}_sigma{sigma:g}.svg"
        (out / name).write_text(line_chart(series, f"EQP, {where}", y_label="EQP"))

    _echo_config(out, {
        "command": "simulate", "scenario": config.distortion, "k": config.n_covariates,
        "levels": "random" if config.levels is None else list(config.levels),
        "n_grid": list(config.n_grid), "sigmas": list(config.sigma_list),
        "replicates": config.replicates, "seed": config.master_seed, "threads": threads,
    })
    return 0


def cmd_diagnose(args) -> int:
    if args.variance_sim:
        return _cmd_diagnose_variance_sim(args)
    return _cmd_diagnose_bias(args)


def _cmd_diagnose_bias(args) -> int:
    truth_path = _require(args, "truth", "TRUTH_REQUIRED")
    spec, ds, _, _, cells, fit = _load_and_fit(args)
    beta_star = _read_matrix(truth_path, "TRUTH_REQUIRED").ravel()
    if len(beta_star) != spec.n_params:
        raise CliError(
            "TRUTH_REQUIRED",
            f"truth length {len(beta_star)} does not match {spec.n_params} parameters",
        )
    pi_star = np.hstack([np.ones((len(fit.pi_rows), 1)), fit.pi_rows])
    z_star = fit.blocks.z_star
    bias = conditional_bias(cells.design_star, pi_star, z_star, beta_star, cells.counts)

    sigma2 = fit.naive.sigma2_w if args.plugin_sigma is None else args.plugin_sigma**2
    var = variance_report(cells.design_star, fit.blocks, fit.pi_rows, sigma2, cells.counts)

    out = _out_dir(args)
    names = _param_names(cells)
    rows = [*zip(names, bias.b_star), ("intercept_corrected", bias.b0)]
    _write_csv(out / "bias.csv", "parameter,bias", rows)
    rows = zip(names, np.diag(var.var_gamma_star), np.diag(var.var_beta_c_star))
    rows = [*rows, ("intercept_corrected", None, var.var_beta0_c)]
    _write_csv(out / "variance.csv", "parameter,var_naive,var_corrected", rows)
    _echo_config(out, {"command": "diagnose", "sigma2": sigma2})
    return 0


def _cmd_diagnose_variance_sim(args) -> int:
    config = _scenario_config_from(args)
    sigma = 0.2 if args.sigma is None else args.sigma
    try:
        points = intercept_variance_curve(config, sigma)
    except ValidationError as exc:  # the scenario cannot give a variance curve
        raise CliError("CONFIG_INVALID", str(exc)) from exc
    out = _out_dir(args)
    rows = [(pt.n, pt.theoretical, pt.empirical) for pt in points]
    _write_csv(out / "intercept_variance.csv", "n,theoretical,empirical", rows)
    series = {key: [(p.n, getattr(p, key)) for p in points] for key in ("theoretical", "empirical")}
    title = f"Corrected-intercept variance, {config.distortion} distortion"
    (out / "intercept_variance.svg").write_text(line_chart(series, title, y_label="variance"))
    _echo_config(out, {
        "command": "diagnose", "variance_sim": True, "scenario": config.distortion,
        "sigma": sigma, "replicates": config.replicates, "seed": config.master_seed,
    })
    return 0


def cmd_scenario_tables(args) -> int:
    for (level, lk), rows in sorted(SCENARIO_THETAS.items()):
        print(f"# {level} distortion, L={lk}")
        for row in rows:
            print(",".join(f"{v:g}" for v in row))
        print()
    print("# note: high distortion is defined only for L=4")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="miscorr",
        description="Bias correction for least squares with misclassified "
        "categorical covariates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    switch = dict(action="store_const", const=True, default=None)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override")
    common.add_argument("--out", type=_text, help="output directory (default: .)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", type=_text, help="CSV with header y,w1..wK")
    data.add_argument("--theta", type=_texts,
                      help="comma-separated theta CSV files, one per covariate")
    data.add_argument("--p", type=_texts, help="comma-separated marginal CSV files")
    data.add_argument("--estimate-p", **switch)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--scenario", type=_text, choices=["low", "medium", "high"])
    grid.add_argument("--k", type=_int, help="number of covariates")
    grid.add_argument("--levels", type=_levels, help="comma-separated L_k values or 'random'")
    grid.add_argument("--n-grid", type=_ints, help="comma-separated sample sizes")
    grid.add_argument("--replicates", type=_int)
    grid.add_argument("--seed", type=_int)

    p_fit = sub.add_parser("fit", parents=[common, data],
                           help="fit and correct estimates from a dataset")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", parents=[common, grid],
                           help="run the simulation study grid")
    p_sim.add_argument("--sigmas", type=_floats, help="comma-separated noise standard deviations")
    p_sim.add_argument("--threads", type=_int, help="accepted; has no effect")
    p_sim.add_argument("--dump-data", **switch)
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", parents=[common, data, grid],
                            help="bias and variance diagnostics")
    p_diag.add_argument("--truth", type=_text, help="CSV with the true parameter vector")
    p_diag.add_argument("--plugin-sigma", type=_positive, help="known noise sd to plug in")
    p_diag.add_argument("--variance-sim", **switch,
                        help="compare theoretical vs empirical intercept variance per n")
    p_diag.add_argument("--sigma", type=_float)
    p_diag.set_defaults(func=cmd_diagnose)

    p_tab = sub.add_parser("scenario-tables", help="print the theta presets as CSV")
    p_tab.set_defaults(func=cmd_scenario_tables)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        _apply_config(parser, args)
        # every command: an overflow is a numerical failure (exit 3), not an inf output
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (NumericalError, FloatingPointError, OverflowError) as exc:
        _emit_error(exc)
        return 3
    except MiscorrError as exc:
        _emit_error(exc)
        return 2
    except OSError as exc:  # inputs are opened by _open, so an output file failed
        _emit_error(CliError("CONFIG_INVALID", f"cannot write {exc.filename}: {exc.strerror}"))
        return 2


def _emit_error(exc: MiscorrError | ArithmeticError) -> None:
    code = getattr(exc, "code", NumericalError.code)
    sys.stderr.write(json.dumps({"error": code, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
