"""Field-weighted citation impact and country-combination observations.

A paper's impact score is its citation count divided by the mean citations
of its (field, year, doctype) cell, so scores average to 1.0 within every
cell by construction. Multi-country papers are then aggregated into one
observation per (country combination, year) — the unit of analysis for the
mixed-effects regression — with the dependent variable ln(mean score + 0.1).
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import (YEAR_MAX, YEAR_MIN, PublicationRecord, _csv_text, _iter_lines, _number,
                     _write_text)

LOG_OFFSET = 0.1

OBSERVATION_COLUMNS = ("combo_id", "year", "country_count",
                       "publication_count", "mean_fwci", "log_fwci")

CellKey = tuple[str, int, str]  # (field, year, doctype)


@dataclass(frozen=True)
class BaselineCell:
    mean_citations: float
    n_papers: int
    usable: bool


def cell_key(record: PublicationRecord) -> CellKey:
    return (record.field, record.year, record.doctype)


def compute_baselines(records: Iterable[PublicationRecord]) -> dict[CellKey, BaselineCell]:
    """Arithmetic mean citations per (field, year, doctype) cell; a cell
    with mean 0 is unusable."""
    sums: dict[CellKey, int] = {}
    counts: dict[CellKey, int] = {}
    for rec in records:
        key = cell_key(rec)
        sums[key] = sums.get(key, 0) + rec.citations
        counts[key] = counts.get(key, 0) + 1
    cells = {}
    for key, n in counts.items():
        mean = sums[key] / n
        cells[key] = BaselineCell(mean_citations=mean, n_papers=n, usable=mean > 0)
    return cells


def attach_fwci(records: Iterable[PublicationRecord],
                baselines: dict[CellKey, BaselineCell],
                ) -> tuple[dict[str, float], list[tuple[str, str]]]:
    """Score every record: citations relative to its cell average, 0 iff
    uncited. Returns (scores by id, exclusions with reasons)."""
    scores: dict[str, float] = {}
    excluded: list[tuple[str, str]] = []
    for rec in records:
        cell = baselines.get(cell_key(rec))
        if cell is None:
            excluded.append((rec.id, f"no baseline cell for {cell_key(rec)}"))
        elif not cell.usable:
            excluded.append((rec.id, f"unusable baseline cell (mean 0) for {cell_key(rec)}"))
        else:
            scores[rec.id] = rec.citations / cell.mean_citations
    return scores, excluded


class ComboObservation(NamedTuple):
    """Aggregate of all papers sharing one exact country combination and year."""

    combo_id: tuple[str, ...]  # sorted, duplicate-free
    year: int
    country_count: int
    publication_count: int
    mean_fwci: float
    log_fwci: float

    @property
    def combo_key(self) -> str:
        return "-".join(self.combo_id)


def make_observation(combo_id: tuple[str, ...], year: int,
                     fwci_values: Sequence[float]) -> ComboObservation:
    mean = math.fsum(fwci_values) / len(fwci_values)
    return ComboObservation(
        combo_id=combo_id,
        year=year,
        country_count=len(combo_id),
        publication_count=len(fwci_values),
        mean_fwci=mean,
        log_fwci=math.log(mean + LOG_OFFSET),
    )


def build_observations(records: Iterable[PublicationRecord],
                       scores: dict[str, float]) -> list[ComboObservation]:
    """One observation per (combination, year) over scored multi-country records.

    Single-country records and records without a score are skipped. The same
    combination seen in two years yields two observations that share one
    random-effect group (the combination itself).
    """
    groups: dict[tuple[tuple[str, ...], int], list[float]] = defaultdict(list)
    for rec in records:
        if rec.is_international() and (score := scores.get(rec.id)) is not None:
            groups[rec.countries, rec.year].append(score)
    # math.fsum is exactly rounded, so the mean does not depend on input order
    return [make_observation(combo, year, values)
            for (combo, year), values in sorted(groups.items())]


def write_observations(observations: Iterable[ComboObservation],
                       path: str | Path) -> None:
    _write_text(path, _csv_text([OBSERVATION_COLUMNS] + [
        (ob.combo_key, ob.year, ob.country_count, ob.publication_count,
         repr(ob.mean_fwci), repr(ob.log_fwci)) for ob in observations]))


def read_observations(source: str | Path | Iterable[str]) -> list[ComboObservation]:
    """Read an observation CSV as `write_observations` writes it.

    A missing column, a short row, a cell the number rule of `_number`
    rejects, a `year` outside YEAR_MIN-YEAR_MAX, a `publication_count` outside
    1-2**53, a `country_count` below 2, a negative `mean_fwci`, a `log_fwci`
    more than 1e-12 relative from ln(mean_fwci + 0.1), or a `country_count`
    other than the number of countries in `combo_id` is a ValueError naming
    the line.
    """
    reader = csv.DictReader(_iter_lines(source))
    missing = [c for c in OBSERVATION_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"line 1: missing column(s) {', '.join(missing)}")
    out = []
    for row in reader:
        where = f"line {reader.line_num}"
        if None in row.values():
            raise ValueError(f"{where}: expected {len(reader.fieldnames)} columns")
        ob = ComboObservation(tuple(row["combo_id"].split("-")), *(
            _number(row[col], kind, f"{where}: {col}")
            for col, kind in zip(OBSERVATION_COLUMNS[1:], (int, int, int, float, float))))
        if not YEAR_MIN <= ob.year <= YEAR_MAX:
            raise ValueError(f"{where}: year {ob.year} is outside {YEAR_MIN}-{YEAR_MAX}")
        if not 1 <= ob.publication_count <= 2 ** 53:  # a float holds each such count exactly
            raise ValueError(f"{where}: publication_count {ob.publication_count} is outside "
                             f"1-{2 ** 53}")
        if ob.country_count < 2:
            raise ValueError(f"{where}: country_count {ob.country_count} is below 2")
        if ob.mean_fwci < 0:
            raise ValueError(f"{where}: mean_fwci {ob.mean_fwci!r} is negative")
        log_fwci = math.log(ob.mean_fwci + LOG_OFFSET)
        if not math.isclose(ob.log_fwci, log_fwci, rel_tol=1e-12):
            raise ValueError(f"{where}: log_fwci {ob.log_fwci!r} is not "
                             f"ln(mean_fwci + {LOG_OFFSET}) = {log_fwci!r}")
        if ob.country_count != len(ob.combo_id):
            raise ValueError(f"{where}: country_count {ob.country_count} but combo_id "
                             f"{ob.combo_key} has {len(ob.combo_id)} countries")
        out.append(ob)
    return out
