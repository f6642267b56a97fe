"""Command-line surface: fit, simulate, diagnose, scenario-tables.

All tabular IO is CSV, configuration is JSON (``--config`` file plus flag
overrides), charts are generated SVG.  Exit codes: 0 success, 2 a refused
input, 3 a numerical failure or out of memory (the README's "Error codes").
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from itertools import islice, product
from pathlib import Path

import numpy as np

from . import __version__
from .categorical import CategoricalSpec, validate_dataset
from .charts import line_chart
from .diagnostics import conditional_bias, variance_report
from .errors import MiscorrError, NonIdentifiable, NumericalError, ValidationError
from .estimators import fit_cells
from .misclass import SCENARIO_THETAS, check_marginal, check_theta, estimate_marginal
from .simkit import (
    HIGH_DISTORTION_SIGMAS,
    METHODS,
    ScenarioConfig,
    intercept_variance_curve,
    replicate_designs,
    replicate_responses,
    run_grid,
)

FMT = "%.17g"  # round-trips IEEE doubles
_LABEL_WIDTH = 32  # bytes; a longer label is matched only by the full-width re-read
# odd 64-bit multipliers (splitmix64 outputs, low bit set), one row per try
# and one column per word of a label field (_LABEL_WIDTH + 8 bytes); written
# out, as drawing them would load numpy.random
_HASH_MULTIPLIERS = np.array([
    [0x2CB0F69F4ABEA221, 0x9417034723148989, 0xDD555950609DFE03, 0xDBAFB150DEB12801,
     0x7E789B2E6C442CB7],
    [0xF41E5636C7E4F8C5, 0x0959D150F8FBA7E5, 0xA97316F13CDB9EEB, 0x74CD8258F9520069,
     0x55C74A62E116868B],
    [0xD2F4C799A2023CBD, 0xDF98CB79A37B51B9, 0x396F5885524F3905, 0xAF1D56386CA3B277,
     0xA9FFBE6B5104E85B],
    [0x6BD0C51B9FD533B3, 0x980CE91C50AB4B57, 0x28AC395780FE62C5, 0x768912E3A6BCEDC7,
     0x50B3E8C9332C7C89],
], dtype=np.uint64)


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


def _os_error(path, code: str, exc: OSError, verb: str = "read") -> CliError:
    """``cannot <verb> <path>`` and why.  A relative path, and in numpy even
    an absolute one, resolves against the working directory, so where that
    directory has been removed, its removal is the reason given."""
    try:
        os.getcwd()
    except OSError:
        return CliError(code, f"cannot {verb} {path}: the working directory no longer exists")
    return CliError(code, f"cannot {verb} {path}: {exc.strerror or exc}")


def _open(path: str, code: str, mode: str = "r"):
    """``path`` opened, a failure reported as ``code``.  Text is UTF-8 whatever
    the locale, and a leading byte-order mark is skipped."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8-sig")
    except OSError as exc:
        raise _os_error(path, code, exc) from exc


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


@functools.cache
def _cli() -> tuple[argparse.ArgumentParser, dict, frozenset]:
    """The parser, its sub-command parsers by name and every config key (a
    setting of any sub-command, spelled like its flag), built on first use
    and reused: a parse keeps nothing of the argv before it."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = {name for cmd in sub.choices.values() for name in vars(cmd.parse_args([]))}
    return parser, sub.choices, frozenset(n.replace("_", "-") for n in names - {"config"})


def _apply_config(args: argparse.Namespace) -> None:
    """Fold the --config file into ``args``: its keys name settings of any
    sub-command, spelled like their flags; each fills a setting of this one
    that no flag set, parsed by that flag's own type and held to its
    choices.  null is unset."""
    _, commands, keys = _cli()
    path = getattr(args, "config", None)
    cfg = _read_json(path, "CONFIG_MISSING", "CONFIG_INVALID") if path else {}
    if not isinstance(cfg, dict):
        raise CliError("CONFIG_INVALID", f"{path} must hold a JSON object")
    if unknown := sorted(set(cfg) - keys):
        raise CliError("CONFIG_INVALID", f"{path}: unknown keys {', '.join(map(repr, unknown))}")
    for action in commands[args.command]._actions:
        key = action.dest.replace("_", "-")
        if (val := cfg.get(key)) is None or getattr(args, action.dest) is not None:
            continue
        try:  # the switches, store_const flags, have no type
            value = (action.type or _switch)(val)
            if action.choices is not None and value not in action.choices:
                raise ValueError(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CliError("CONFIG_INVALID", f"bad value for {key}: {val!r}") from exc
        setattr(args, action.dest, value)


def _loadtxt(path: str, code: str, lines=None, names=(), ndmin=2, **kwargs) -> np.ndarray:
    """The one CSV parser, of the file at ``path``, decoded as the caller's
    ``encoding`` (latin-1 or UTF-8), or of ``lines`` that _open read from it:
    '#' is data (labels may hold it), fields may be double-quoted, a parse
    error is DATA_INVALID naming the data row and a read error is ``code``.
    numpy reads a path in blocks, through np.lib._datasource, which would
    fetch a name that parses as a URL (an absolute path never does) and
    decompresses by suffix (those names are refused)."""
    if lines is None:
        _refuse_compressed(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on empty input; callers check
            # numpy 1.23 to 1.26 read an integer field's 1.5 or nan through a
            # float and truncate it, with only this warning: make it a parse error
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                os.path.abspath(path) if lines is None else lines,
                delimiter=",", comments=None, quotechar='"', ndmin=ndmin, **kwargs,
            )
    except UnicodeDecodeError as exc:  # its position counts within numpy's read block
        raise _parse_error(path, names, _file_decode_error(path, exc.encoding) or exc) from exc
    except (ValueError, DeprecationWarning) as exc:
        raise _parse_error(path, names, exc) from exc
    except OSError as exc:  # e.g. the file went away since it was opened
        raise _os_error(path, code, exc) from exc


def _refuse_compressed(path: str) -> None:
    if os.path.splitext(path)[1] in (".gz", ".bz2", ".xz", ".lzma"):
        raise CliError("DATA_INVALID", f"{path}: compressed data files are not read")


def _file_decode_error(path: str, encoding: str) -> UnicodeDecodeError | None:
    """The first decode error in the whole file, whose position is a byte
    offset from its start; None if there is none or the file cannot be read
    again."""
    try:
        Path(path).read_bytes().decode(encoding)
    except UnicodeDecodeError as whole:
        return whole
    except OSError:
        pass
    return None


def _parse_error(path: str, names, exc: Exception) -> CliError:
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


def _read_matrix(path: str, code: str, entries: int | None = None) -> np.ndarray:
    """A table of finite numbers; with ``entries``, one row of that many."""
    with _open(path, code) as fh:  # given a missing path, numpy would try path.gz and others
        _refuse_compressed(path)
        table = _loadtxt(path, code, fh, dtype=float)
    if table.size == 0:
        raise CliError(code, f"empty file: {path}")
    if not np.all(np.isfinite(table)):
        raise CliError("DATA_INVALID", f"{path}: entries must be finite")
    if entries is not None and table.shape != (1, entries):
        raise CliError("DATA_INVALID", f"{path}: expected one row of {entries} entries, "
                       f"got {table.shape[0]} x {table.shape[1]}")
    return table


def _read_checked(path: str, code: str, check, entries: int | None = None) -> np.ndarray:
    """A theta or p file through ``check_theta`` or ``check_marginal``, whose
    error and renormalizing warning are prefixed with the file's path."""
    table = _read_matrix(path, code, entries)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            checked = check(table)
        except ValidationError as exc:
            raise CliError(exc.code, f"{path}: {exc}") from exc
    for note in caught:
        warnings.warn(f"{path}: {note.message}", note.category)
    return checked


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


def _hash(words: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
    """Σ_t words[..., t] · multipliers[..., t] mod 2**64, over the first words
    that have a multiplier, in uint64 arrays (whose products wrap silently,
    where a numpy scalar's would raise under cli.main's errstate)."""
    hashed = words[..., 0] * multipliers[..., 0]
    for t in range(1, min(words.shape[-1], multipliers.shape[-1])):
        hashed += words[..., t] * multipliers[..., t]
    return hashed


def _match(cells: np.ndarray, labels: list[str]) -> np.ndarray:
    """The category of each cell as read, -1 where it is not exactly a label.
    Cells are bytes in whole 64-bit words.  A multiply-shift hash of its
    words (the top bits of ``_hash``) names a cell's slot in a table of 4 to
    8 slots per label, and the cell is compared word by word with each label
    in that slot: one pass over the cells per label in the fullest slot, at
    worst one per label.  Of the rows of _HASH_MULTIPLIERS, the one whose
    fullest slot holds fewest labels is used.  An empty table entry holds a
    label of another slot, which no cell of this slot can equal.  Only a
    label that UTF-8 can write, shorter than the field, with no surrounding
    whitespace and no NUL (the field drops trailing NULs) can match a cell
    as read."""
    keys = {b: i for i, s in enumerate(labels) if len(b := s.encode("utf-8", "replace"))
            < cells.itemsize and b.decode("utf-8") == s == s.strip() and "\0" not in s}
    if not keys:
        return np.full(len(cells), -1)
    key_words = np.array(list(keys), cells.dtype)[:, None].view(np.uint64)
    cell_words = cells[:, None].view(np.uint64)  # (cells, words), zero-copy
    shift = 64 - (4 * len(keys) - 1).bit_length()
    slots = (_hash(key_words[:, None], _HASH_MULTIPLIERS) >> shift).view(np.intp)
    fullest = [np.bincount(s).max() for s in slots.T]
    best = int(np.argmin(fullest))
    # table[d, slot]: the category of the slot's d-th label
    key_slots, cats = slots[:, best], np.array(list(keys.values()))
    order = np.argsort(key_slots, kind="stable")
    in_slot = key_slots[order]
    table = np.full((fullest[best], 1 << (64 - shift)), cats[0])
    table[np.arange(len(order)) - np.searchsorted(in_slot, in_slot), in_slot] = cats[order]
    words = np.zeros((key_words.shape[1], len(labels)), np.uint64)  # by category
    words[:, cats] = key_words.T
    hashed = _hash(cell_words, _HASH_MULTIPLIERS[best])
    hashed >>= shift
    slot, ids = hashed.view(np.intp), -1
    for row in table:
        candidate = row.take(slot)
        hit = words[0].take(candidate) == cell_words[:, 0]
        for t in range(1, len(words)):
            hit &= words[t].take(candidate) == cell_words[:, t]
        ids = np.where(hit, candidate, ids)
    return ids


def _read_dataset(path: str, labels: dict) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
    """y, finite, and the K integer category columns and their names, of a
    CSV whose header is y, in either case, then K names, no two alike.
    Columns named in ``labels`` hold labels, the others integral numbers,
    parsed as integers; only where that parse refuses a
    cell (a float spelling such as 1.0, 1e0 or 1., or an integer beyond 64
    bits) is the file parsed again with them as floats, where a cell of 2**53
    or more, which a float may have rounded, is out of range and quoted as
    written.  The file is UTF-8 whatever the locale.  These parses read the
    body as latin-1, a label column into bytes one longer than its longest
    label (at most _LABEL_WIDTH), so a cell that matches as read is not a
    truncated one.  A file they accept reads as in the UTF-8 text parse: in
    latin-1 a byte that is not ASCII makes a number unparsable unless it is
    0x85 or 0xA0, which the number parsers take as whitespace, and a label
    cell that is not UTF-8 matches no label, so it is re-read as text; a
    file holding 0x85 or 0xA0 is decoded, to refuse it if it is not UTF-8.
    A file they refuse is parsed as UTF-8 text.  A label cell that misses is
    re-read at full width, as UTF-8, and matched with spaces stripped."""
    nul = space = False  # a field drops trailing NULs; latin-1 spaces 0x85, 0xA0
    with _open(path, "DATA_MISSING", "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            nul, space = nul or b"\0" in block, space or b"\x85" in block or b"\xa0" in block
    with _open(path, "DATA_MISSING") as fh:
        names = [h.strip() for h in
                 _loadtxt(path, "DATA_MISSING", islice(fh, 1), dtype=object).ravel()]
    if len(names) < 2 or names[0].lower() != "y":
        raise CliError("DATA_INVALID", f"{path}: expected header y,w1..wK, "
                       f"got {repr(','.join(names))[:100]}")
    seen: set[str] = set()
    for name in names:  # labels.json and the messages know a column by its name
        if name in seen:
            raise CliError("DATA_INVALID",
                           f"{path}: the header names column {repr(name)[:100]} twice")
        seen.add(name)
    labelled = {j: labels[name] for j, name in enumerate(names) if j and name in labels}
    width = {j: 8 * (min(max((len(s.encode("utf-8", "replace")) for s in v), default=0),
                         _LABEL_WIDTH) // 8 + 1) for j, v in labelled.items()}

    def fields(text: str, number: str) -> list:  # y a float, labels ``text``, the rest ``number``
        return [("", f"{text}{width[j]}" if j in width else number if j else "f8")
                for j in range(len(names))]
    # the body from the path; skiprows counts lines, as islice does
    body = dict(code="DATA_MISSING", names=names, ndmin=1, skiprows=1)
    for (text, encoding), number in product([("S", "latin-1"), ("U", "utf-8")], ("i8", "f8")):
        try:
            table = _loadtxt(path, dtype=fields(text, number), encoding=encoding, **body)
            break
        except CliError as exc:
            if exc.code != "DATA_INVALID" or (text, number) == ("U", "f8"):
                raise
    if text == "S" and space and (exc := _file_decode_error(path, "utf-8")):
        raise _parse_error(path, names, exc)
    if len(table) == 0:
        raise CliError("DATA_INVALID", f"no data rows in {path}")
    cols, full = [table[f] for f in table.dtype.names], {}
    for j, col_labels in labelled.items():
        cats = cols[j] = _match(cols[j], col_labels) if text == "S" else np.full(len(table), -1)
        if not (miss := np.flatnonzero((cats < 0) | nul)).size:
            continue
        full[j] = _loadtxt(path, dtype=object, usecols=j, encoding="utf-8", **body)
        index = {label: i for i, label in enumerate(col_labels)}
        cats[miss] = [index.get(cell.strip(), -1) for cell in full[j][miss]]
    if unknown := [(np.argmax(cols[j] < 0), j) for j in full if (cols[j] < 0).any()]:
        i, j = min(unknown)
        cell = repr(full[j][i])[:100]  # cut as numpy cuts a cell in its own messages
        raise CliError("DATA_INVALID", f"{path}: data row {i + 1}, column {names[j]}: "
                       f"{cell} is not in labels.json")
    # y must be finite, and a category read as a float an integer below 2**53
    bad = {j: ~np.isfinite(col) if j == 0 else (col != np.round(col)) | (np.abs(col) >= 2**53)
           for j, col in enumerate(cols) if col.dtype.kind == "f"}
    if first := [(np.argmax(mask), j) for j, mask in bad.items() if mask.any()]:
        i, j = min(first)
        where, value = f"{path}: data row {i + 1}, column {names[j]}", cols[j][i]
        if j and np.isfinite(value) and value == np.round(value):  # no category is this large
            cell = _loadtxt(path, dtype=object, usecols=j, encoding="utf-8", **body)[i]
            raise CliError("DATA_INVALID", f"{where}: {repr(cell)[:100]} is out of range")
        raise CliError("DATA_INVALID",
                       f"{where}: {float(value)!r} is not {'an integer' if j else 'finite'}")
    return (np.ascontiguousarray(cols[0]),
            [col.astype(int) if col.dtype.kind == "f" else col for col in cols[1:]], names[1:])


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
        return [_read_checked(path, "P_MISSING", check_marginal, len(theta))
                for path, theta in zip(paths, thetas)], {}
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
        raise _os_error(out, "CONFIG_INVALID", exc, "create") from exc
    return out


def _echo_config(out: Path, resolved: dict) -> None:
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")


def _param_names(spec: CategoricalSpec) -> list[str]:
    """The design's columns, intercept first, in the spec's layout order."""
    return ["intercept", *(f"w{k + 1}_level{lv}" for k, lv in spec.layout[2])]


def _load_and_fit(args, truth_path: str | None = None):
    """The input boundary shared by fit and diagnose: read the dataset, its
    theta files and the truth file if given (one row of a parameter per
    design column), validate, read the p files and refuse a p with a zero,
    which leaves the correction unidentified, then fit and correct on the
    cells the validation found.  A warning raised on the way (a renormalized
    theta or p) is written to stderr as one JSON line, and returned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data_path = _require(args, "data", "DATA_MISSING")
        labels = _load_labels(data_path)
        y, columns, names = _read_dataset(data_path, labels)
        paths = _paths(args, "theta", len(columns), "THETA_MISSING")
        thetas = [_read_checked(path, "THETA_MISSING", check_theta) for path in paths]
        spec = CategoricalSpec(tuple(t.shape[0] for t in thetas))
        truth = (None if truth_path is None else
                 _read_matrix(truth_path, "TRUTH_REQUIRED", spec.n_params)[0])
        report = validate_dataset(spec, columns, names, labels)
        if report.errors:
            raise CliError("DATA_INVALID", "; ".join(report.errors))
        ps, p_residuals = _load_marginals(args, thetas, report.level_counts)
        # a true level of p 0 makes its indicators collinear, whatever the data
        whose = ([("the estimated p", f" (projection residual {res:.3g})")
                  for res in p_residuals.values()] if p_residuals else
                 [(f"the p in {path}", "") for path in _paths(args, "p", len(ps), "P_MISSING")])
        if zero := [(name, np.flatnonzero(p == 0), *who)
                    for name, p, who in zip(names, ps, whose) if not p.all()]:
            raise NonIdentifiable("; ".join(
                f"column {name}: {who} is 0 at level{'s' * (len(at) > 1)} "
                f"{', '.join(map(str, at))}{note}" for name, at, who, note in zero)
                + ", so the correction is not identified" + "; give --p files" * bool(p_residuals))
        fit = fit_cells(spec, report.cells, y, thetas, ps)
    notes = [str(note.message) for note in caught]
    for note, message in zip(caught, notes):
        _emit("warning", getattr(note.category, "code", note.category.__name__), message)
    return spec, len(y), notes, p_residuals, fit, truth


def cmd_fit(args) -> int:
    spec, n, notes, p_residuals, fit, _ = _load_and_fit(args)
    sigma2_w = fit.sigma2_w[0, 0]
    var = variance_report(fit, sigma2_w)
    var_diag = [var.var_beta0_c[0, 0], *np.diag(var.var_beta_c_star[0, 0])[1:]]

    out = _out_dir(args)
    rows = zip(_param_names(spec), fit.gamma_star[0, 0], fit.beta_full[0, 0], var_diag)
    _write_csv(out / "estimates.csv", "parameter,naive,corrected,variance", rows)

    diag = {
        "n": n, "n_params": spec.n_params, "sigma2_w": sigma2_w,
        "condition_sigma_w": float(np.linalg.cond(fit.blocks.sigma_w)),
        "condition_correction": float(np.linalg.cond(fit.blocks.correction)),
        "warnings": notes, "estimated_p_residuals": p_residuals,
    }
    (out / "diagnostics.json").write_text(json.dumps(diag, indent=2) + "\n")
    _echo_config(out, {"command": "fit", "n": n, "levels": list(spec.levels)})
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
    if dropped := [f"{s:g}" for s in args.sigmas or ScenarioConfig.sigma_list
                   if s not in config.sigma_list]:  # only under high distortion
        _emit("warning", "SIGMA_DROPPED", "high distortion runs only sigma " + " and ".join(
            f"{s:g}" for s in HIGH_DISTORTION_SIGMAS) + f"; dropped sigma {', '.join(dropped)}")
    threads = max(1, args.threads or 1)
    table = run_grid(config)
    out = _out_dir(args)
    (out / "eqp.csv").write_text(table.to_csv())
    if args.dump_data:
        _dump_data(config, out)

    for sigma, eqps in zip(config.sigma_list, table.eqp.transpose(1, 2, 0).tolist()):
        series = {method: [(n, v) for n, v in zip(config.n_grid, values) if math.isfinite(v)]
                  for method, values in zip(METHODS, eqps)}
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
    spec, _, _, _, fit, beta_star = _load_and_fit(args, _require(args, "truth", "TRUTH_REQUIRED"))
    bias = conditional_bias(fit, beta_star)
    sigma2 = fit.sigma2_w[0, 0] if args.plugin_sigma is None else np.float64(args.plugin_sigma) ** 2
    var = variance_report(fit, sigma2)

    out = _out_dir(args)
    names = _param_names(spec)
    rows = [*zip(names, bias.b_star), ("intercept_corrected", bias.b0)]
    _write_csv(out / "bias.csv", "parameter,bias", rows)
    rows = zip(names, np.diag(var.var_gamma_star[0, 0]), np.diag(var.var_beta_c_star[0, 0]))
    rows = [*rows, ("intercept_corrected", None, var.var_beta0_c[0, 0])]
    _write_csv(out / "variance.csv", "parameter,var_naive,var_corrected", rows)
    _echo_config(out, {"command": "diagnose", "sigma2": sigma2})
    return 0


def _cmd_diagnose_variance_sim(args) -> int:
    config = _scenario_config_from(args)
    sigma = 0.2 if args.sigma is None else args.sigma
    points = intercept_variance_curve(config, sigma)
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

    sub.add_parser("fit", parents=[common, data], help="fit and correct estimates from a dataset")

    p_sim = sub.add_parser("simulate", parents=[common, grid],
                           help="run the simulation study grid")
    p_sim.add_argument("--sigmas", type=_floats, help="comma-separated noise standard deviations")
    p_sim.add_argument("--threads", type=_int, help="accepted; has no effect")
    p_sim.add_argument("--dump-data", **switch)

    p_diag = sub.add_parser("diagnose", parents=[common, data, grid],
                            help="bias and variance diagnostics")
    p_diag.add_argument("--truth", type=_text, help="CSV with the true parameter vector")
    p_diag.add_argument("--plugin-sigma", type=_positive, help="known noise sd to plug in")
    p_diag.add_argument("--variance-sim", **switch,
                        help="compare theoretical vs empirical intercept variance per n")
    p_diag.add_argument("--sigma", type=_positive)

    sub.add_parser("scenario-tables", help="print the theta presets as CSV")
    return parser


def main(argv=None) -> int:
    try:
        args = _cli()[0].parse_args(argv)
        _apply_config(args)
        # every command: an overflow, invalid operation or underflow exits 3 rather than
        # write inf, NaN or 0; the command is looked up at each call, so a rebinding runs
        with np.errstate(over="raise", invalid="raise", under="raise"):
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (NumericalError, FloatingPointError, OverflowError) as exc:
        _emit_error(exc)
        return 3
    except MemoryError as exc:  # e.g. a grid too large to hold
        _emit("error", "OUT_OF_MEMORY", str(exc))
        return 3
    except MiscorrError as exc:
        _emit_error(exc)
        return 2
    except OSError as exc:  # inputs are opened by _open, so an output file failed
        _emit_error(_os_error(exc.filename, "CONFIG_INVALID", exc, "write"))
        return 2


def _emit_error(exc: MiscorrError | ArithmeticError) -> None:
    _emit("error", getattr(exc, "code", NumericalError.code), str(exc))


def _emit(kind: str, code: str, message: str) -> None:
    sys.stderr.write(json.dumps({kind: code, "message": message}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
