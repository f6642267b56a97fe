"""Correctness checks for the benchmark's outputs, using numpy only.

The oracle recomputes each estimate from first principles: naive OLS by
``lstsq`` on the dummy design, the slope correction
beta_C = (Sigma_W^-1 Sigma_WX)^-1 gamma_hat from the population moment blocks,
and the intercept correction beta0_C = mean(y_i - pi_(i) beta_C) through the
Bayes posterior.  Every check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

RTOL = 1e-7  # oracle vs program: two least-squares solvers in float64
REF_RTOL = 1e-6  # program vs recorded reference: allows reordered sums


def dummy_design(levels, w) -> np.ndarray:
    """Intercept column, then one 0/1 column per non-reference level."""
    cols = [np.ones(len(w))]
    for k, lk in enumerate(levels):
        for level in range(lk - 1):
            cols.append((w[:, k] == level).astype(float))
    return np.column_stack(cols)


def moment_blocks(thetas, ps):
    """Block-diagonal Sigma_W and Sigma_WX over the non-reference levels."""
    d = sum(len(p) - 1 for p in ps)
    sigma_w = np.zeros((d, d))
    sigma_wx = np.zeros((d, d))
    off = 0
    for theta, p in zip(thetas, ps):
        q = theta.T @ p
        dk = len(p) - 1
        for a in range(dk):
            for b in range(dk):
                sigma_w[off + a, off + b] = (q[a] if a == b else 0.0) - q[a] * q[b]
                sigma_wx[off + a, off + b] = (theta[b, a] - q[a]) * p[b]
        off += dk
    return sigma_w, sigma_wx


def posterior_rows(thetas, ps, w) -> np.ndarray:
    """Row i holds P(X_k = m | W_k = w_ik) for the non-reference m."""
    cols = []
    for k, (theta, p) in enumerate(zip(thetas, ps)):
        q = theta.T @ p
        for m in range(len(p) - 1):
            cols.append(theta[m, w[:, k]] * p[m] / q[w[:, k]])
    return np.column_stack(cols)


def estimates(levels, thetas, ps, w, y):
    """(naive, corrected) parameter vectors, intercept first, or None when
    the design is rank deficient."""
    design = dummy_design(levels, w)
    n, m = design.shape
    if n <= m or np.linalg.matrix_rank(design) < m:
        return None
    naive = np.linalg.lstsq(design, y, rcond=None)[0]
    sigma_w, sigma_wx = moment_blocks(thetas, ps)
    beta_c = np.linalg.solve(sigma_wx, sigma_w @ naive[1:])
    beta0_c = float(np.mean(y - posterior_rows(thetas, ps, w) @ beta_c))
    return naive, np.concatenate([[beta0_c], beta_c])


def conditional_bias(levels, thetas, ps, w, beta_star):
    """Bias of the corrected estimators given W, and of the corrected
    intercept: (Z (W*'W*)^-1 W*' pi* - I) beta* and mean_i pi_(i)(beta - E)."""
    design = dummy_design(levels, w)
    pi = posterior_rows(thetas, ps, w)
    pi_star = np.column_stack([np.ones(len(w)), pi])
    sigma_w, sigma_wx = moment_blocks(thetas, ps)
    z = np.eye(len(beta_star))
    z[1:, 1:] = np.linalg.solve(sigma_wx, sigma_w)
    expected = z @ np.linalg.lstsq(design, pi_star @ beta_star, rcond=None)[0]
    b0 = float(np.mean(pi @ (beta_star[1:] - expected[1:])))
    return expected - beta_star, b0


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rtol: float, atol: float = 1e-12) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def check_estimates(path, naive, corrected) -> list[str]:
    rows = read_csv(path)
    problems = []
    if len(rows) != len(naive):
        return [f"{path}: {len(rows)} parameters, expected {len(naive)}"]
    for row, nv, cv in zip(rows, naive, corrected):
        name = row["parameter"]
        if not _close(float(row["naive"]), nv, RTOL):
            problems.append(f"{path}: naive {name} = {row['naive']}, oracle {nv!r}")
        if not _close(float(row["corrected"]), cv, RTOL):
            problems.append(f"{path}: corrected {name} = {row['corrected']}, oracle {cv!r}")
        var = float(row["variance"])
        if not (math.isfinite(var) and var > 0):
            problems.append(f"{path}: variance {name} = {row['variance']} is not positive")
    return problems


def check_bias(path, b_star, b0) -> list[str]:
    rows = read_csv(path)
    expected = list(b_star) + [b0]
    if len(rows) != len(expected):
        return [f"{path}: {len(rows)} rows, expected {len(expected)}"]
    return [
        f"{path}: bias {row['parameter']} = {row['bias']}, oracle {want!r}"
        for row, want in zip(rows, expected)
        if not _close(float(row["bias"]), want, RTOL, atol=1e-10)
    ]


def check_variance_table(path, n_params) -> list[str]:
    rows = read_csv(path)
    if len(rows) != n_params + 1:
        return [f"{path}: {len(rows)} rows, expected {n_params + 1}"]
    problems = []
    for row in rows:
        for key in ("var_naive", "var_corrected"):
            if row[key] == "" and row["parameter"] == "intercept_corrected":
                continue
            v = float(row[key])
            if not (math.isfinite(v) and v > 0):
                problems.append(f"{path}: {key} {row['parameter']} = {row[key]}")
    return problems


def check_eqp(path, expected: dict, replicates: int) -> list[str]:
    """``expected`` maps (n, sigma, method) to (eqp, failures)."""
    rows = read_csv(path)
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{path}: {len(rows)} rows, expected {len(expected)}")
    for row in rows:
        key = (int(row["n"]), float(row["sigma"]), row["method"])
        if key not in expected:
            problems.append(f"{path}: unexpected row {key}")
            continue
        want_eqp, want_failures = expected[key]
        failures, reps = int(row["failures"]), int(row["replicates"])
        if failures != want_failures or failures + reps != replicates:
            problems.append(
                f"{path}: {key} failures/replicates {failures}/{reps}, "
                f"oracle {want_failures}/{replicates - want_failures}"
            )
        if not _close(float(row["eqp"]), want_eqp, RTOL):
            problems.append(f"{path}: {key} eqp {row['eqp']}, oracle {want_eqp!r}")
        mcse = float(row["mcse"])
        if reps > 0 and not (math.isfinite(mcse) and mcse >= 0):
            problems.append(f"{path}: {key} mcse {row['mcse']}")
    return problems


def check_reference(path, reference_text: str, keys, exact, approx) -> list[str]:
    """Compare a CSV output to a recorded one: rows matched by ``keys``,
    ``exact`` columns equal as text, ``approx`` columns within REF_RTOL."""
    got = read_csv(path)
    want = list(csv.DictReader(io.StringIO(reference_text)))
    if len(got) != len(want):
        return [f"{path}: {len(got)} rows, reference has {len(want)}"]
    problems = []
    for g, r in zip(got, want):
        where = ",".join(r[k] for k in keys)
        if any(g[k] != r[k] for k in keys):
            problems.append(f"{path}: row {','.join(g[k] for k in keys)}, reference {where}")
            continue
        for col in exact:
            if g[col] != r[col]:
                problems.append(f"{path}: {where} {col} {g[col]}, reference {r[col]}")
        for col in approx:
            if not _close(float(g[col]), float(r[col]), REF_RTOL):
                problems.append(f"{path}: {where} {col} {g[col]}, reference {r[col]}")
    return problems
