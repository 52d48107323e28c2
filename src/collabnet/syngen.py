"""Seeded synthetic corpus generator with preferential-attachment growth.

Papers are drawn one at a time: a country-set size from a configured
probability table, then that many distinct countries with probability
proportional to (prior participation count + 1) ** attachment_strength.
The +1 smoothing keeps unseen countries reachable, so the country set grows
over time; strength 0 is uniform choice and larger values are
richer-get-richer. Citations come from a negative-binomial model with a
configurable mean per (field, year, doctype) cell.

All randomness flows through numpy's Philox counter-based generator, keyed
by the config seed (the structural draws and the citation draws use two
spawned streams so the structural draw sequence does not depend on the
citation model). Identical configs produce byte-identical output. Do not
change the generator family silently: recorded seeds would stop reproducing.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import SpecialtyMap
from .countries import sorted_codes

PROB_TOL = 1e-12


@dataclass(frozen=True)
class CitationModel:
    """Mean citations per (field, year, doctype) cell, shared dispersion."""

    means: dict[tuple[str, int, str], float]
    dispersion: float = 1.5


@dataclass(frozen=True)
class GenConfig:
    seed: int
    n_countries: int
    n_papers: int
    years: tuple[int, ...]
    countries_per_paper: dict[int, float]
    attachment_strength: float
    citation_model: CitationModel

    def validate(self) -> None:
        universe = sorted_codes()
        if self.n_countries < 2:
            raise ValueError("n_countries must be >= 2")
        if self.n_countries > len(universe):
            raise ValueError(f"n_countries exceeds the country universe ({len(universe)})")
        if self.n_papers < 1:
            raise ValueError("n_papers must be >= 1")
        if not self.years:
            raise ValueError("years must be non-empty")
        if len(set(self.years)) != len(self.years):
            raise ValueError("years must be unique")
        if self.attachment_strength < 0:
            raise ValueError("attachment_strength must be >= 0")
        sizes = self.countries_per_paper
        if not sizes:
            raise ValueError("countries_per_paper must be non-empty")
        if any((not isinstance(k, int)) or k < 1 for k in sizes):
            raise ValueError("countries_per_paper sizes must be positive integers")
        if any(p < 0 for p in sizes.values()):
            raise ValueError("countries_per_paper probabilities must be >= 0")
        if abs(sum(sizes.values()) - 1.0) > PROB_TOL:
            raise ValueError("countries_per_paper probabilities must sum to 1")
        if max(k for k, p in sizes.items() if p > 0) > self.n_countries:
            raise ValueError("countries_per_paper support exceeds n_countries")
        if self.citation_model.dispersion <= 0:
            raise ValueError("citation dispersion must be > 0")
        if any(m <= 0 for m in self.citation_model.means.values()):
            raise ValueError("citation means must be > 0")
        covered = {y for (_, y, _) in self.citation_model.means}
        missing = [y for y in self.years if y not in covered]
        if missing:
            raise ValueError(f"citation model has no cells for years {missing}")

    @classmethod
    def default(cls, seed: int, n_countries: int = 60, n_papers: int = 2000,
                years: Sequence[int] = (2008, 2013),
                attachment_strength: float = 0.8) -> "GenConfig":
        fields = {
            "Astrophysics": 12.0,
            "Mathematical Logic": 2.0,
            "Polymer Science": 5.0,
            "Seismology": 6.0,
            "Soil Science": 4.0,
            "Virology": 9.0,
        }
        means: dict[tuple[str, int, str], float] = {}
        for f_name, base in fields.items():
            for i, year in enumerate(years):
                for doctype, factor in (("article", 1.0), ("review", 1.6)):
                    means[(f_name, int(year), doctype)] = base * factor * (1.0 + 0.15 * i)
        return cls(
            seed=seed,
            n_countries=n_countries,
            n_papers=n_papers,
            years=tuple(int(y) for y in years),
            countries_per_paper={1: 0.35, 2: 0.40, 3: 0.15, 4: 0.07, 5: 0.03},
            attachment_strength=attachment_strength,
            citation_model=CitationModel(means=means),
        )


class TruthRow(NamedTuple):
    id: str
    year: int
    field: str
    doctype: str
    countries: tuple[str, ...]   # in drawn order
    citations: int


def _pick_index(u: float, weights: np.ndarray) -> int:
    cdf = np.cumsum(weights)
    return int(np.searchsorted(cdf, u * cdf[-1], side="right"))


def generate(config: GenConfig) -> tuple[list[dict], list[TruthRow]]:
    """Generate `n_papers` records plus the ground-truth draw log.

    Records are plain dicts in the corpus line format; the truth log keeps
    the countries in the order they were drawn.
    """
    config.validate()
    seq = np.random.SeedSequence(config.seed)
    struct_ss, annot_ss = seq.spawn(2)
    rng_struct = np.random.Generator(np.random.Philox(struct_ss))
    rng_annot = np.random.Generator(np.random.Philox(annot_ss))

    codes = sorted_codes()[:config.n_countries]
    participation = np.zeros(config.n_countries, dtype=np.int64)

    size_values = sorted(k for k, p in config.countries_per_paper.items() if p > 0)
    size_probs = np.array([config.countries_per_paper[k] for k in size_values])
    size_cdf = np.cumsum(size_probs)

    cells_by_year: dict[int, list[tuple[str, str, float]]] = {}
    for (f_name, year, doctype), mean in sorted(config.citation_model.means.items()):
        cells_by_year.setdefault(year, []).append((f_name, doctype, mean))
    years = list(config.years)
    r = config.citation_model.dispersion

    records: list[dict] = []
    truth: list[TruthRow] = []
    for i in range(1, config.n_papers + 1):
        size = size_values[int(np.searchsorted(size_cdf, rng_struct.random()
                                               * size_cdf[-1], side="right"))]
        weights = (participation + 1).astype(float) ** config.attachment_strength
        drawn: list[int] = []
        for _ in range(size):
            idx = _pick_index(rng_struct.random(), weights)
            drawn.append(idx)
            weights[idx] = 0.0
        participation[drawn] += 1

        year = years[int(rng_annot.integers(len(years)))]
        cells = cells_by_year[year]
        f_name, doctype, mean = cells[int(rng_annot.integers(len(cells)))]
        citations = int(rng_annot.negative_binomial(r, r / (r + mean)))

        pid = f"p{i:07d}"
        countries = tuple(codes[j] for j in drawn)
        records.append({
            "id": pid,
            "year": year,
            "journal": f"Journal of {f_name}",
            "specialty": f_name,
            "field": f_name,
            "doctype": doctype,
            "countries": sorted(countries),
            "citations": citations,
        })
        truth.append(TruthRow(id=pid, year=year, field=f_name, doctype=doctype,
                              countries=countries, citations=citations))
    return records, truth


def records_jsonl(records: Iterable[dict]) -> str:
    """Canonical one-object-per-line serialization (byte-stable)."""
    out = io.StringIO()
    for rec in records:
        out.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    return out.getvalue()


def write_records(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(records_jsonl(records))


def truth_csv(truth: Iterable[TruthRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "year", "field", "doctype", "countries", "citations"])
    for row in truth:
        writer.writerow([row.id, row.year, row.field, row.doctype,
                         "-".join(row.countries), row.citations])
    return out.getvalue()


def specialty_map_for(config: GenConfig) -> SpecialtyMap:
    """Map each generated journal name to its field label."""
    fields = sorted({f_name for (f_name, _, _) in config.citation_model.means})
    return SpecialtyMap({f"Journal of {f}": f for f in fields}, universe=fields)


def participation_counts(truth: Iterable[TruthRow]) -> dict[str, int]:
    """Papers per country, recomputed from the truth log."""
    counts: dict[str, int] = {}
    for row in truth:
        for c in row.countries:
            counts[c] = counts.get(c, 0) + 1
    return counts
