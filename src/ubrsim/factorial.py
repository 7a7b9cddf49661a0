"""Full-factorial analysis for a three-factor experiment with one replicate.

The experiment grid crosses TCP flavor (4) x buffer size (3) x drop policy
(2) into 24 cells.  The analysis decomposes each response into a grand mean
and the effects of its terms: main effects, two-factor interactions and the
three-factor interaction, all estimated by one rule.  The three-factor
interaction is the error term, reported as `residual` (6 degrees of
freedom); it also prices the confidence intervals, unless it is zero to
rounding, as when the grid's drop policies act alike.  The terms partition
the variation, so the total is the sum of theirs.  Replicated cells
(several seeds) are averaged before the decomposition.
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


def t_quantile_95(dof: int) -> float:
    """Upper 0.95 quantile of t(dof), from the table: dof 1 to 30 only.

    `analyze` asks for 6.  No fallback: the normal quantile past 30 (1.645)
    is not t's, e.g. t(46) is 1.679.
    """
    if dof not in T_TABLE_95:
        raise AnalysisError(f"no t quantile for {dof} degrees of freedom; "
                            "the table covers 1 to 30")
    return T_TABLE_95[dof]


# a sum of squares at most this fraction of the responses' is rounding
# noise: such an error term prices no interval (additive or all-equal data
# give 1e-30) and such a total gives no shares.  Not a fraction of the
# total, which on all-equal data is noise too
ZERO_ERROR = 1e-20

# factor column -> its levels; the order fixes every sum of the analysis
FACTORS = {
    "tcp_flavor": FLAVORS,
    "buffer_rtt": BUFFER_LEVELS,
    "drop_policy": POLICIES,
}
# a term is a tuple of factor names: every main effect, every pair, then
# the three-factor interaction, which with one replicate is the error term
TERMS = tuple(term for k in range(1, len(FACTORS) + 1)
              for term in combinations(FACTORS, k))


def term_key(term: tuple):
    """A term's key in `ss` and `dof`: a factor's name, a pair's tuple, or
    "residual" for the three-factor interaction."""
    if len(term) == len(FACTORS):
        return "residual"
    return term[0] if len(term) == 1 else term


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

    def pct(self, component: str) -> float:
        total = self.ss["total"]
        if total <= ZERO_ERROR * self.sum_sq_individual:  # zero to rounding
            return 0.0
        return 100.0 * self.ss[component] / total

    def mean_ci(self) -> tuple:
        return self._ci(self.grand_mean, 1)

    def effect_ci(self, factor: str, level: str) -> tuple:
        return self._ci(self.effects[factor][level], len(FACTORS[factor]) - 1)

    @property
    def bounded(self) -> bool:
        """Whether the error term is more than rounding noise."""
        return self.ss["residual"] > ZERO_ERROR * self.sum_sq_individual

    def _ci(self, e: float, k: int) -> tuple:
        # 90 percent bounds of an effect with k degrees of freedom
        if not self.bounded:
            return None, None
        hw = self.s_e * math.sqrt(k / self.n) * self.t_crit
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

    ss = {}
    dof = {"total": n - 1}
    table: dict = {}      # term -> {levels: effect}
    effect_at: dict = {}  # ((name, level), ...) -> that term's effect there
    for term in TERMS:
        cols = [names.index(name) for name in term]
        per = table[term] = {}
        for levels in product(*(FACTORS[name] for name in term)):
            at = tuple(zip(term, levels))
            sel = [y[k] for k in full
                   if all(k[c] == lev for c, lev in zip(cols, levels))]
            # the cells' mean, less the grand mean and every lower term's
            # effect at these levels, single factors first
            fitted = grand
            for j in range(1, len(term)):
                for sub in combinations(at, j):
                    fitted += effect_at[sub]
            per[levels] = effect_at[at] = sum(sel) / len(sel) - fitted
        key = term_key(term)
        sizes = [len(FACTORS[name]) for name in term]
        ss[key] = n // math.prod(sizes) * sum(e * e for e in per.values())
        dof[key] = math.prod(size - 1 for size in sizes)
    ss["total"] = sum(ss.values())  # the terms partition the variation
    effects = {name: {lev: e for (lev,), e in table[(name,)].items()}
               for name in names}
    interactions = {term: table[term] for term in TERMS if len(term) == 2}

    s_e = math.sqrt(ss["residual"] / dof["residual"])
    t_crit = t_quantile_95(dof["residual"])
    return FactorialReport(response, n, grand, effects, interactions, ss, dof,
                           sum(v * v for v in y.values()), s_e, t_crit)


# ---------------------------------------------------------------- rendering

NO_BOUNDS = "  no bounds: the residual sum of squares is zero to rounding"


def _fmt(v, places: int = 4) -> str:
    """v to `places` decimals, "" for None; a zero is never signed."""
    return "" if v is None else f"{round(v, places) + 0.0:.{places}f}"


def variation_rows(report: FactorialReport) -> list:
    """Component, sum of squares, share of total variation (percent)."""
    rows = []
    for key in [*map(term_key, TERMS), "total"]:
        name = key if isinstance(key, str) else " x ".join(key)
        rows.append((name, report.ss[key], report.pct(key)))
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
        out.append(f"  {name:<28}{_fmt(ssv):>12}{_fmt(pct, 2):>9}")
    out.append("")
    out.append("effects with 90 percent confidence bounds")
    if report.bounded:
        out.append(f"  {'term':<28}{'effect':>10}{'low':>10}{'high':>10}")
    else:
        out.append(NO_BOUNDS)
        out.append(f"  {'term':<28}{'effect':>10}")
    for term, e, lo, hi in effect_rows(report):
        out.append(f"  {term:<28}{_fmt(e):>10}{_fmt(lo):>10}{_fmt(hi):>10}".rstrip())
    out.append("")
    return "\n".join(out)


def write_report_csvs(report: FactorialReport, prefix: str) -> list:
    """Write <prefix>.variation.csv and <prefix>.effects.csv; return paths."""
    tables = (
        ("variation", ("component", "sum_sq", "pct_of_total"),
         [(name, _fmt(ssv, 6), _fmt(pct, 2))
          for name, ssv, pct in variation_rows(report)]),
        ("effects", ("term", "effect", "ci_low", "ci_high"),
         [(term, _fmt(e, 6), _fmt(lo, 6), _fmt(hi, 6))
          for term, e, lo, hi in effect_rows(report)]),
    )
    paths = []
    for name, header, rows in tables:
        path = f"{prefix}.{name}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        paths.append(path)
    return paths


def read_matrix(path: str, response: str) -> list:
    """Load experiment rows from a results CSV of one delay class.

    Raises AnalysisError when the file mixes delay classes, since effects
    across classes are not comparable.
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
        if len(classes) > 1:
            raise AnalysisError(
                f"{path}: mixes delay classes {', '.join(classes)}; "
                "a results file holds one")
    if "status" in rows[0]:
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            raise AnalysisError(
                f"{path}: {len(bad)} rows have status != ok; "
                "rerun those cells before analysis")
    return rows
