"""Longitudinal analytics across snapshot years.

Change summaries compare first and last observed year (node change as a raw
count, edge growth as a percentage, diameter as a direction). Convergence
curves express each year's node count as a share of the final-year count,
per specialty plus a pooled mean curve; shares may exceed 1 when a field
shrinks, which is flagged rather than forbidden.

The stats CSV column table and its reader live here, beside their
consumer, so reading a stats file needs no numpy; `metrics` writes its
columns from the same table and re-exports the reader.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import _csv_text, _iter_lines, _number


@dataclass(frozen=True)
class TrendPoint:
    year: int
    nodes: int
    edges: int
    diameter: int | None = None


@dataclass(frozen=True)
class TrendSeries:
    """Per-year size measures for one specialty, years strictly increasing."""

    specialty: str
    points: tuple[TrendPoint, ...]

    def __post_init__(self):
        years = [p.year for p in self.points]
        if sorted(set(years)) != years:
            raise ValueError(f"years must be strictly increasing, got {years}")

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(p.year for p in self.points)

    def node_shares(self) -> list[float]:
        return self._shares([p.nodes for p in self.points], "nodes")

    def edge_shares(self) -> list[float]:
        return self._shares([p.edges for p in self.points], "edges")

    def _shares(self, values: list[int], measure: str) -> list[float]:
        if values[-1] == 0:
            raise ValueError(f"{self.specialty} {self.years[-1]}: no {measure} in the final year")
        return [v / values[-1] for v in values]


@dataclass(frozen=True)
class GrowthResult:
    node_change: int
    edge_growth_pct: float       # exact percentage, unrounded
    diameter_trend: str          # "decrease" | "no change" | "increase"

    @property
    def edge_growth_pct_rounded(self) -> int:
        return round_half_up(self.edge_growth_pct)


def round_half_up(value: float) -> int:
    """Round to the nearest integer with ties away from zero (table style)."""
    return int(Decimal(repr(value)).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def growth(series: TrendSeries) -> GrowthResult:
    """Change between the first and last year of a series."""
    if len(series.points) < 2:
        raise ValueError("growth needs at least two years")
    first, last = series.points[0], series.points[-1]
    if first.edges == 0:
        raise ValueError(f"{series.specialty} {first.year}: growth undefined: zero edges")
    node_change = last.nodes - first.nodes
    pct = 100.0 * (last.edges - first.edges) / first.edges
    if first.diameter is None or last.diameter is None:
        trend = "unknown"
    elif last.diameter < first.diameter:
        trend = "decrease"
    elif last.diameter > first.diameter:
        trend = "increase"
    else:
        trend = "no change"
    return GrowthResult(node_change=node_change, edge_growth_pct=pct,
                        diameter_trend=trend)


@dataclass(frozen=True)
class ConvergenceResult:
    years: tuple[int, ...]
    node_shares: dict[str, list[float]]
    edge_shares: dict[str, list[float]]
    pooled_node_share: list[float]      # mean of node shares across specialties
    non_monotone: frozenset[str]        # specialties whose node share ever drops


def convergence(series_list: Sequence[TrendSeries]) -> ConvergenceResult:
    """Final-year-normalized share curves plus the pooled mean curve."""
    if not series_list:
        raise ValueError("no series")
    grids = {s.years for s in series_list}
    if len(grids) > 1:
        raise ValueError(f"mismatched year grids: {sorted(grids)}")
    years = series_list[0].years
    node_shares = {s.specialty: s.node_shares() for s in series_list}
    edge_shares = {s.specialty: s.edge_shares() for s in series_list}
    pooled = [sum(node_shares[s.specialty][i] for s in series_list) / len(series_list)
              for i in range(len(years))]
    flagged = set()
    for spec, shares in node_shares.items():
        if any(b < a for a, b in zip(shares, shares[1:])):
            flagged.add(spec)
    return ConvergenceResult(years=years, node_shares=node_shares,
                             edge_shares=edge_shares, pooled_node_share=pooled,
                             non_monotone=frozenset(flagged))


# The stats CSV columns and their types, in `metrics.NetworkStats` field order.
STATS_TABLE = (
    ("specialty", str), ("year", int), ("nodes", int), ("edges", int), ("diameter", int),
    ("avg_degree", float), ("density", float), ("betweenness_centralization", float),
    ("transitivity", float), ("avg_local_clustering", float), ("components", int),
    ("alpha", float),
)
_NEEDED = ("specialty", "year", "nodes", "edges")  # of which only specialty may be blank


def read_stats_csv(source: str | Path | Iterable[str]) -> list[dict]:
    """Read stats rows back as dicts, blank number cells as None. A number `_number`
    rejects, a count outside 0-2**53 (a float holds each), a `_NEEDED` column missing or
    (but specialty) blank, or a (specialty, year) read before is a ValueError naming its line."""
    out = []
    lines: dict[tuple[str, int], int] = {}  # the line of each (specialty, year) read
    reader = csv.DictReader(_iter_lines(source))
    for row in reader:
        parsed: dict = {}
        for col, kind in STATS_TABLE:
            raw, where = row.get(col), f"line {reader.line_num}: column {col}"
            if raw is None and col in _NEEDED or raw == "" and col in _NEEDED[1:]:
                raise ValueError(f"{where}: {'missing' if raw is None else 'blank cell'}")
            v = parsed[col] = raw if kind is str else _number(raw, kind, where) if raw else None
            if kind is int and col != "year" and v is not None and not 0 <= v <= 2 ** 53:
                raise ValueError(f"{where} {v} is outside 0-2**53")
        line = lines.setdefault((parsed["specialty"], parsed["year"]), reader.line_num)
        if line != reader.line_num:
            raise ValueError(f"line {reader.line_num}: specialty {parsed['specialty']}, "
                             f"year {parsed['year']} repeats line {line}")
        out.append(parsed)
    return out


def series_from_stats(rows: Iterable[dict]) -> list[TrendSeries]:
    """Group stats rows (as `read_stats_csv` returns them) into trend series."""
    by_spec: dict[str, list[TrendPoint]] = {}
    for row in rows:
        by_spec.setdefault(row["specialty"], []).append(TrendPoint(
            year=row["year"], nodes=row["nodes"], edges=row["edges"],
            diameter=row.get("diameter")))
    out = []
    for spec in sorted(by_spec):
        points = tuple(sorted(by_spec[spec], key=lambda p: p.year))
        out.append(TrendSeries(specialty=spec, points=points))
    return out


TREND_COLUMNS = ("specialty", "year", "nodes", "edges", "diameter",
                 "node_share", "edge_share", "pooled_node_share")


def trends_csv(series_list: Sequence[TrendSeries]) -> str:
    """Plot-ready long-format CSV with shares and the pooled curve."""
    conv = convergence(series_list)
    return _csv_text([TREND_COLUMNS] + [
        [s.specialty, p.year, p.nodes, p.edges,
         p.diameter if p.diameter is not None else "",
         repr(conv.node_shares[s.specialty][i]),
         repr(conv.edge_shares[s.specialty][i]),
         repr(conv.pooled_node_share[i])]
        for s in series_list for i, p in enumerate(s.points)])


def change_cells(series: TrendSeries) -> tuple[str, str, str]:
    """(node change, edge growth %, diameter trend) formatted for the table."""
    g = growth(series)
    return (str(g.node_change), f"{g.edge_growth_pct_rounded}%", g.diameter_trend)


def format_change_table(series_list: Sequence[TrendSeries]) -> str:
    """Size-measures table: nodes/edges/diameter rows per specialty with the
    change column comparing first and last year."""
    if not series_list:
        raise ValueError("no series")
    years = series_list[0].years
    name_w = max(len("Net Measure"), max(len(s.specialty) for s in series_list)) + 2
    year_w = 8
    change_w = len("Change (first to last)")
    header = ("Net Measure".ljust(name_w)
              + "".join(str(y).rjust(year_w) for y in years)
              + "  " + "Change (first to last)")
    lines = [header]
    for s in series_list:
        if s.years != years:
            raise ValueError("mismatched year grids")
        nodes_c, edges_c, diam_c = change_cells(s)
        lines.append(s.specialty)
        lines.append("  Nodes".ljust(name_w)
                     + "".join(str(p.nodes).rjust(year_w) for p in s.points)
                     + "  " + nodes_c.rjust(change_w))
        lines.append("  Edges".ljust(name_w)
                     + "".join(str(p.edges).rjust(year_w) for p in s.points)
                     + "  " + edges_c.rjust(change_w))
        lines.append("  Diameter".ljust(name_w)
                     + "".join(str(p.diameter if p.diameter is not None else "-").rjust(year_w)
                               for p in s.points)
                     + "  " + diam_c.rjust(change_w))
    return "\n".join(lines) + "\n"
