"""Checks of the program's outputs against ``oracle`` and against properties
the method must have. Each function returns the reasons an output fails
(an empty list means it passed), so the workloads can count failures per
operation and the tests can assert that wrong outputs are caught.

mpmath (through ``oracle``) and scipy are imported inside the functions that
need them, so the CSV checks made between timed rounds add nothing to the
run's memory or set-up time.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Relative tolerance for a closed-form grid point against the oracle.
ANALYTIC_RTOL = 1e-12
#: Relative tolerance for an exact table's CDF against the oracle; both are
#: evaluated at the oracle's 200 digits, so only the oracle's rounding and
#: the mixture's cancellation remain.
TABLE_RTOL = 1e-40
#: Family-wise false-alarm probability of the Monte Carlo tests in one run.
MC_FAMILY_ALPHA = 1e-4

CSV_HEADER = "gammabar_db,analytic,mc,ci_low,ci_high"


def table_problems(table, loaded, dims: tuple[int, int]) -> list[str]:
    """Exact properties of one extracted table and its save/load round trip."""
    a, b = dims
    problems = []
    if (table.dims.a, table.dims.b) != dims:
        problems.append(f"table dims ({table.dims.a},{table.dims.b}) != {dims}")
    total = sum(table.entries.values(), Fraction(0))
    if total != 1:
        problems.append(f"weights sum to {total}, not exactly 1")
    if ((loaded.dims.a, loaded.dims.b) != (table.dims.a, table.dims.b)
            or loaded.norm_const != table.norm_const
            or loaded.entries != table.entries):
        problems.append("save/load round trip is not exact")
    if a == 1 and table.entries != {(1, b - 1): Fraction(1)}:
        problems.append(f"a = 1 table is not the Erlang({b}) law")
    return problems


def table_oracle_problems(table, dims: tuple[int, int], xs) -> list[str]:
    """The table's mixture CDF against the determinant oracle at ``xs``."""
    import oracle

    problems = []
    for x in xs:
        ref = oracle.max_eig_cdf(*dims, x)
        err = oracle.relative_error(oracle.mixture_cdf(table.entries, x), ref)
        if not err <= TABLE_RTOL:
            problems.append(f"CDF at x={x!r} has relative error {err:.3g}")
    return problems


def analytic_failures(values, references) -> list[bool]:
    """Per grid point: outside ANALYTIC_RTOL of the oracle, or not monotone.

    Outage must not increase with average SNR, so a point above its
    predecessor fails as well.
    """
    import oracle

    failed = []
    for i, (value, ref) in enumerate(zip(values, references, strict=True)):
        bad = not oracle.relative_error(value, ref) <= ANALYTIC_RTOL
        if i and value > values[i - 1]:
            bad = True
        failed.append(bad)
    return failed


def mc_failures(rows, trials: int, references, n_tests: int) -> list[bool]:
    """Per grid point: exact two-sided binomial test of the Monte Carlo count.

    Bonferroni over the ``n_tests`` estimates checked in one run keeps the
    family-wise false-alarm probability of a correct program below
    MC_FAMILY_ALPHA. The Wilson interval must also contain the estimate.
    """
    from scipy.stats import binomtest

    alpha = MC_FAMILY_ALPHA / n_tests
    failed = []
    for row, ref in zip(rows, references, strict=True):
        failures = round(row.mc * trials)
        p = min(max(float(ref), 0.0), 1.0)
        pvalue = binomtest(failures, trials, p).pvalue
        inside = row.ci_low <= row.mc <= row.ci_high
        failed.append(not (pvalue >= alpha and inside))
    return failed


def csv_problems(text: str, grid, rows, with_mc: bool) -> list[str]:
    """The CSV written for a curve holds exactly its rows at 10 digits."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["bad CSV header"]
    if len(lines) - 1 != len(grid):
        return [f"CSV has {len(lines) - 1} rows for {len(grid)} grid points"]

    def fmt(value):
        return "" if value is None else format(value, ".10g")

    problems = []
    for line, g_db, row in zip(lines[1:], grid, rows):
        want = [fmt(g_db), fmt(row.analytic)]
        want += [fmt(row.mc), fmt(row.ci_low), fmt(row.ci_high)] if with_mc else ["", "", ""]
        if line.split(",") != want:
            problems.append(f"CSV row {line!r} != {','.join(want)!r}")
        if row.gammabar_db != g_db or not math.isfinite(row.analytic):
            problems.append(f"curve row {row!r} does not match grid point {g_db}")
    return problems
