"""Full-factorial analysis for a three-factor experiment with one replicate.

The experiment grid crosses TCP flavor (4) x buffer size (3) x drop policy
(2) into 24 cells.  The analysis decomposes each response into a grand mean,
additive main effects, and two-factor interactions; the three-factor
interaction is treated as the error term (6 degrees of freedom), which also
prices the confidence intervals.  Replicated cells (several seeds) are
averaged before the decomposition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations, product

from .scenarios import BUFFER_LEVELS, POLICIES
from .tcp import FLAVORS


class AnalysisError(ValueError):
    """Raised for malformed or incomplete experiment matrices."""


# one-sided 0.95 quantiles of Student's t, indexed by degrees of freedom
T_TABLE_95 = {
    1: 6.314, 2: 2.920, 3: 2.353, 4: 2.132, 5: 2.015,
    6: 1.943, 7: 1.895, 8: 1.860, 9: 1.833, 10: 1.812,
    11: 1.796, 12: 1.782, 13: 1.771, 14: 1.761, 15: 1.753,
    16: 1.746, 17: 1.740, 18: 1.734, 19: 1.729, 20: 1.725,
    21: 1.721, 22: 1.717, 23: 1.714, 24: 1.711, 25: 1.708,
    26: 1.706, 27: 1.703, 28: 1.701, 29: 1.699, 30: 1.697,
}
Z_95 = 1.6449  # normal fallback beyond the table


def t_quantile_95(dof: int) -> float:
    """Upper 0.95 quantile of t(dof); normal approximation past 30."""
    if dof < 1:
        raise AnalysisError(f"degrees of freedom must be >= 1, got {dof}")
    return T_TABLE_95.get(dof, Z_95)


# factor column -> its levels; the order fixes every sum of the analysis
FACTORS = {
    "tcp_flavor": FLAVORS,
    "buffer_rtt": BUFFER_LEVELS,
    "drop_policy": POLICIES,
}


@dataclass
class FactorialReport:
    response: str
    n: int
    grand_mean: float
    effects: dict              # factor name -> {level: effect}
    interactions: dict         # (name_a, name_b) -> {(level_a, level_b): effect}
    ss: dict                   # component -> sum of squares (+ residual, total)
    dof: dict                  # component -> degrees of freedom
    sum_sq_individual: float   # sum of squared cell responses
    s_e: float                 # residual standard deviation
    t_crit: float
    std_err: dict              # "mean" and factor names -> effect standard error

    def pct(self, component: str) -> float:
        total = self.ss["total"]
        if total == 0.0:
            return 0.0
        return 100.0 * self.ss[component] / total

    def mean_ci(self) -> tuple:
        hw = self.std_err["mean"] * self.t_crit
        return self.grand_mean - hw, self.grand_mean + hw

    def effect_ci(self, factor: str, level: str) -> tuple:
        e = self.effects[factor][level]
        hw = self.std_err[factor] * self.t_crit
        return e - hw, e + hw


def analyze(rows, response: str) -> FactorialReport:
    """Decompose `response` over the full factorial of FACTORS.

    `rows` is an iterable of mappings carrying one column per factor plus the
    response.  Every cell of the 24 must be present; repeated cells are
    averaged (replicates).
    """
    names = tuple(FACTORS)
    cells: dict[tuple, list] = {}
    for i, row in enumerate(rows):
        try:
            key = tuple(str(row[name]) for name in names)
            val = float(row[response])
        except KeyError as exc:
            raise AnalysisError(f"row {i}: missing column {exc}") from None
        except (TypeError, ValueError):
            raise AnalysisError(
                f"row {i}: response {response}={row.get(response)!r} "
                "is not a number") from None
        if not math.isfinite(val):
            raise AnalysisError(f"row {i}: response {response}={val} is not finite")
        for name, lev in zip(names, key):
            if lev not in FACTORS[name]:
                raise AnalysisError(
                    f"row {i}: {name}={lev!r} is not one of {FACTORS[name]}")
        cells.setdefault(key, []).append(val)

    full = list(product(*FACTORS.values()))
    missing = [k for k in full if k not in cells]
    if missing:
        raise AnalysisError(f"matrix incomplete: {len(missing)} cells missing, "
                            f"first {missing[0]}")
    y = {k: sum(v) / len(v) for k, v in cells.items()}
    n = len(full)
    grand = sum(y.values()) / n

    effects: dict = {}
    for i, (name, levels) in enumerate(FACTORS.items()):
        per = {}
        for lev in levels:
            sel = [y[k] for k in full if k[i] == lev]
            per[lev] = sum(sel) / len(sel) - grand
        effects[name] = per

    interactions: dict = {}
    for ai, bi in combinations(range(len(names)), 2):
        na, nb = names[ai], names[bi]
        per = {}
        for la in FACTORS[na]:
            for lb in FACTORS[nb]:
                sel = [y[k] for k in full if k[ai] == la and k[bi] == lb]
                cell_mean = sum(sel) / len(sel)
                per[(la, lb)] = cell_mean - (grand + effects[na][la]
                                             + effects[nb][lb])
        interactions[na, nb] = per

    ss: dict = {}
    dof: dict = {}
    sum_sq = sum(v * v for v in y.values())
    ss["total"] = sum_sq - n * grand * grand
    dof["total"] = n - 1
    for name, levels in FACTORS.items():
        reps = n // len(levels)
        ss[name] = reps * sum(e * e for e in effects[name].values())
        dof[name] = len(levels) - 1
    for (na, nb), per in interactions.items():
        la = len(FACTORS[na])
        lb = len(FACTORS[nb])
        reps = n // (la * lb)
        ss[na, nb] = reps * sum(e * e for e in per.values())
        dof[na, nb] = (la - 1) * (lb - 1)

    explained = sum(ss[name] for name in names)
    explained += sum(ss[k] for k in interactions)
    residual = ss["total"] - explained
    if residual < 0:
        if residual < -1e-9 * max(1.0, ss["total"]):
            raise AnalysisError(f"negative residual sum of squares: {residual}")
        residual = 0.0
    ss["residual"] = residual
    # the three-factor interaction's (4 - 1) * (3 - 1) * (2 - 1) = 6, never 0
    dof["residual"] = (dof["total"] - sum(dof[name] for name in names)
                       - sum(dof[k] for k in interactions))

    s_e = math.sqrt(residual / dof["residual"])
    t_crit = t_quantile_95(dof["residual"])
    std_err = {"mean": s_e * math.sqrt(1.0 / n)}
    for name, levels in FACTORS.items():
        std_err[name] = s_e * math.sqrt((len(levels) - 1) / n)

    return FactorialReport(response, n, grand, effects, interactions, ss, dof,
                           sum_sq, s_e, t_crit, std_err)


# ---------------------------------------------------------------- rendering

def _fmt(v: float) -> str:
    return f"{v:.4f}"


def variation_rows(report: FactorialReport) -> list:
    """Component, sum of squares, share of total variation (percent)."""
    rows = []
    for name in FACTORS:
        rows.append((name, report.ss[name], report.pct(name)))
    for key in report.interactions:
        label = f"{key[0]} x {key[1]}"
        rows.append((label, report.ss[key], report.pct(key)))
    rows.append(("residual", report.ss["residual"], report.pct("residual")))
    rows.append(("total", report.ss["total"], 100.0 if report.ss["total"] else 0.0))
    return rows


def effect_rows(report: FactorialReport) -> list:
    """Term, point effect, and 90 percent confidence bounds."""
    lo, hi = report.mean_ci()
    rows = [("mean", report.grand_mean, lo, hi)]
    for name, levels in FACTORS.items():
        for lev in levels:
            e = report.effects[name][lev]
            lo, hi = report.effect_ci(name, lev)
            rows.append((f"{name}={lev}", e, lo, hi))
    return rows


def render_text(report: FactorialReport) -> str:
    out = [f"response: {report.response}    cells: {report.n}    "
           f"residual dof: {report.dof['residual']}    s_e: {_fmt(report.s_e)}"]
    out.append("")
    out.append("allocation of variation")
    out.append(f"  {'component':<28}{'sum sq':>12}{'pct':>9}")
    for name, ssv, pct in variation_rows(report):
        out.append(f"  {name:<28}{ssv:>12.4f}{pct:>9.2f}")
    out.append("")
    out.append("effects with 90 percent confidence bounds")
    out.append(f"  {'term':<28}{'effect':>10}{'low':>10}{'high':>10}")
    for term, e, lo, hi in effect_rows(report):
        out.append(f"  {term:<28}{e:>10.4f}{lo:>10.4f}{hi:>10.4f}")
    out.append("")
    return "\n".join(out)


def write_report_csvs(report: FactorialReport, prefix: str) -> list:
    """Write <prefix>.variation.csv and <prefix>.effects.csv; return paths."""
    paths = []
    path = f"{prefix}.variation.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("component", "sum_sq", "pct_of_total"))
        for name, ssv, pct in variation_rows(report):
            w.writerow((name, f"{ssv:.6f}", f"{pct:.2f}"))
    paths.append(path)
    path = f"{prefix}.effects.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("term", "effect", "ci_low", "ci_high"))
        for term, e, lo, hi in effect_rows(report):
            w.writerow((term, f"{e:.6f}", f"{lo:.6f}", f"{hi:.6f}"))
    paths.append(path)
    return paths


def read_matrix(path: str, response: str, delay_class: str | None = None) -> list:
    """Load experiment rows from a results CSV, optionally filtering one class.

    Raises AnalysisError when the file mixes delay classes and no filter was
    given, since effects across classes are not comparable.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise AnalysisError(f"{path}: empty file")
        if response not in reader.fieldnames:
            raise AnalysisError(f"{path}: no column {response!r}")
        rows = list(reader)
    if not rows:
        raise AnalysisError(f"{path}: no data rows")
    if "delay_class" in rows[0]:
        classes = sorted({r["delay_class"] for r in rows})
        if delay_class is not None:
            rows = [r for r in rows if r["delay_class"] == delay_class]
            if not rows:
                raise AnalysisError(
                    f"{path}: no rows for delay class {delay_class!r} "
                    f"(present: {', '.join(classes)})")
        elif len(classes) > 1:
            raise AnalysisError(
                f"{path}: mixes delay classes {', '.join(classes)}; "
                "pick one with --delay-class")
    if "status" in rows[0]:
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            raise AnalysisError(
                f"{path}: {len(bad)} rows have status != ok; "
                "rerun those cells before analysis")
    return rows
