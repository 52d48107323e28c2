"""Publication corpus: ingestion, validation, journal-to-specialty mapping.

Records arrive as newline-delimited JSON objects, one publication per line:

    {"id": "p1", "year": 2013, "journal": "Journal of Virology",
     "field": "Virology", "doctype": "article",
     "countries": ["US", "CN"], "citations": 5}

Ingestion validates each record, normalizes country codes, resolves the
specialty from the journal name, and collects a rejection report for every
line that is dropped. The resulting corpus is immutable and can be persisted
to a canonical byte-stable JSONL file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from sys import intern
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .countries import COUNTRY_CODES, normalize_country

YEAR_MIN = 1900
YEAR_MAX = 2100

DEFAULT_SPECIALTIES = (
    "Astrophysics",
    "Mathematical Logic",
    "Polymer Science",
    "Seismology",
    "Soil Science",
    "Virology",
)

OTHER_SPECIALTY = "other"

_WS = re.compile(r"\s+")
# `_number`'s rule per kind: ASCII decimal text (as `repr` and `.12g` write it, `1e+16` too;
# no `_`, `nan` or other digits), or a non-bool value of the abstract number type
_NUMBER_RULES = {int: (re.compile(r"\s*[+-]?[0-9]+\s*"), numbers.Integral, "an integer"),
                 float: (re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*"),
                         numbers.Real, "a number")}

# A line as `_jsonl_lines` writes a record: sorted keys, no spaces, strings
# without escapes or surrogates, optionally followed by a line ending.
_STR = r'"([^"\\\x00-\x1f\ud800-\udfff]*)"'
_INT = r"(0|[1-9][0-9]*)"
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # how `_iter_lines` keeps a byte that is not UTF-8
_CANONICAL = re.compile(
    r'\{"citations":' + _INT + r',"countries":\["([A-Z]{2}(?:","[A-Z]{2})*)"\]'
    + "".join(f',"{key}":{_STR}' for key in ("doctype", "field", "id", "journal", "specialty"))
    + r',"year":' + _INT + r'\}\r?\n?')


def _jsonl_lines(objs: Iterable[dict]) -> Iterator[str]:
    """The canonical JSONL form, one line per object: sorted keys, compact, LF."""
    for obj in objs:
        yield json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _csv_text(rows: Iterable[Iterable]) -> str:
    """The one CSV dialect of every output: quoted only where needed, LF."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _write_text(path: str | Path, text: str) -> Path:
    """Write `text` to `path` as UTF-8 with LF line endings; returns the path."""
    p = Path(path)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return p


class RecordInvalid(ValueError):
    """A single record failed validation; `reason` goes to the report, under
    `record_id` when the record has one."""

    def __init__(self, reason: str, record_id=None):
        super().__init__(reason)
        self.reason = reason
        self.record_id = record_id


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    """One publication with its country set and citation count."""

    id: str
    year: int
    journal: str
    specialty: str
    field: str
    doctype: str
    countries: tuple[str, ...]  # normalized, deduplicated, sorted
    citations: int

    def is_international(self) -> bool:
        return len(self.countries) >= 2

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "year": self.year,
            "journal": self.journal,
            "specialty": self.specialty,
            "field": self.field,
            "doctype": self.doctype,
            "countries": list(self.countries),
            "citations": self.citations,
        }


def _norm_journal(name: str) -> str:
    return _WS.sub(" ", name.strip()).casefold()


class SpecialtyMap:
    """Journal name -> specialty label, exact match after normalization.

    Journal names must be unique after case/whitespace normalization, and
    every label must belong to the configured specialty universe.
    """

    def __init__(self, entries: dict[str, str], universe: Iterable[str] = DEFAULT_SPECIALTIES):
        self.universe = frozenset(universe)
        self._entries: dict[str, str] = {}
        for journal, label in entries.items():
            key = _norm_journal(journal)
            if key in self._entries and self._entries[key] != label:
                raise ValueError(f"duplicate journal after normalization: {journal!r}")
            if label not in self.universe:
                raise ValueError(
                    f"specialty {label!r} for journal {journal!r} is not in the universe"
                )
            self._entries[key] = label

    def __len__(self) -> int:
        return len(self._entries)

    def resolve(self, journal: str) -> str | None:
        """Specialty label for a journal, or None when unmapped."""
        return self._entries.get(_norm_journal(journal))

    @classmethod
    def from_csv(cls, source: str | Path | Iterable[str],
                 universe: Iterable[str] | None = None) -> "SpecialtyMap":
        """Load a two-column `journal,specialty` CSV (header optional); errors name the line."""
        entries = {}
        for line, row in _csv_rows(source, ("journal", "specialty")):
            if len(row) < 2:
                raise ValueError(f"line {line}: specialty map row needs two columns: {row!r}")
            entries[row[0]] = row[1].strip()
        if universe is None:
            universe = sorted(set(entries.values()))
        return cls(entries, universe)

    @classmethod
    def bundled(cls) -> "SpecialtyMap":
        """The packaged six-specialty journal list."""
        data = resources.files("collabnet.data").joinpath("specialty_journals.csv")
        with data.open("r", encoding="utf-8") as fh:
            return cls.from_csv(fh, universe=DEFAULT_SPECIALTIES)


def parse_record(obj: dict) -> PublicationRecord:
    """Validate one decoded record object. Raises RecordInvalid."""
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid.strip():
        raise RecordInvalid("missing id")
    year = obj.get("year")
    if isinstance(year, bool) or not isinstance(year, int):
        raise RecordInvalid("invalid year")
    if not (YEAR_MIN <= year <= YEAR_MAX):
        raise RecordInvalid(f"year out of range: {year}")
    raw_countries = obj.get("countries")
    if raw_countries is None or isinstance(raw_countries, (str, bytes)):
        raise RecordInvalid("invalid countries")
    try:
        codes = [normalize_country(str(c)) for c in raw_countries]
    except (TypeError, AttributeError):
        raise RecordInvalid("invalid countries") from None
    if not codes:
        raise RecordInvalid("empty country set")
    for code in codes:
        if code not in COUNTRY_CODES:
            raise RecordInvalid(f"unknown country code: {code}")
    citations = obj.get("citations")
    if isinstance(citations, bool) or not isinstance(citations, int):
        raise RecordInvalid("invalid citations")
    if citations < 0:
        raise RecordInvalid(f"negative citations: {citations}")
    texts = {key: obj.get(key) or "" for key in ("journal", "specialty", "field", "doctype")}
    if bad := [key for key, text in texts.items() if not isinstance(text, str)]:
        raise RecordInvalid(f"invalid {bad[0]}")
    return PublicationRecord(
        id=rid,
        year=year,
        countries=tuple(sorted(set(map(intern, codes)))),  # one string per code, not per record
        citations=citations,
        **texts,
    )


@dataclass(frozen=True)
class Corpus:
    """Validated records (read-only, keyed and ordered by id) plus the rejection report.
    Frozen, so the slice index built from the records cannot go stale."""

    records: Mapping[str, PublicationRecord] = field(default_factory=dict)
    rejections: list[tuple[str, str]] = field(default_factory=list)
    specialty_labels: frozenset[str] = frozenset(DEFAULT_SPECIALTIES) | {OTHER_SPECIALTY}
    # the records of each (specialty, year) slice, in id order, grouped once
    _slices: dict[tuple[str, int], list[PublicationRecord]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):  # sort the keys: sorting items allocates a tuple per record
        records = MappingProxyType({rid: self.records[rid] for rid in sorted(self.records)})
        object.__setattr__(self, "records", records)
        for rec in self.records.values():
            self._slices.setdefault((rec.specialty, rec.year), []).append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PublicationRecord]:
        return iter(self.records.values())

    def save(self, path: str | Path) -> None:
        """Write the canonical JSONL form: sorted by id, compact, LF."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(_jsonl_lines(rec.to_json_obj() for rec in self))

    @classmethod
    def load(cls, path: str | Path, only: tuple[str, int] | None = None) -> "Corpus":
        """Read a previously saved corpus (specialties taken as stored).

        With `only=(specialty, year)` every line is still validated, but only
        that slice's records are kept: the result holds exactly
        `filter_records(Corpus.load(path), *only)`, and the specialty labels
        of the whole corpus.
        """
        latest: dict[str, tuple[str, PublicationRecord | None]] = {}
        for n, line in enumerate(_iter_lines(path, "surrogateescape"), start=1):
            if not line.strip():
                continue
            try:
                rid, specialty, rec = _parse_line(line, only)
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
            latest[rid] = (specialty, rec)
        records = {rid: rec for rid, (_, rec) in latest.items() if rec is not None}
        labels = {s for s, _ in latest.values()} | set(DEFAULT_SPECIALTIES) | {OTHER_SPECIALTY}
        return cls(records=records, rejections=[], specialty_labels=frozenset(labels))


def _iter_lines(source: str | Path | Iterable[str], errors: str = "strict") -> Iterator[str]:
    """The lines of a path (UTF-8, a leading BOM dropped, line endings kept, as
    `csv` needs), or of an iterable as given. A byte that is not UTF-8 is kept
    as a surrogate with `errors="surrogateescape"`; with "strict" it is a
    ValueError naming its line."""
    if not isinstance(source, (str, Path)):
        yield from source
        return
    with open(source, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        if errors == "surrogateescape":
            yield from fh
            return
        for n, line in enumerate(fh, start=1):
            if not line.isascii() and (bad := _SURROGATE.search(line)) is not None:
                raise ValueError(f"line {n}: not valid UTF-8 at character {bad.start() + 1}")
            yield line


def _csv_rows(source: str | Path | Iterable[str], header: tuple[str, ...]) -> Iterator[tuple]:
    """(line where it ends, cells) of each CSV row with a non-blank cell, skipping a first
    row whose leading cells equal `header`, ignoring case and surrounding spaces."""
    reader = csv.reader(_iter_lines(source))
    for i, row in enumerate(reader):
        if any(c.strip() for c in row) and not (
                i == 0 and tuple(c.strip().lower() for c in row[:len(header)]) == header):
            yield reader.line_num, row


def _number(value, kind: type, what: str):
    """`value`, from outside the program, read as `kind` (int or float) by its
    rule above, a float finite; anything else is a ValueError naming `what`."""
    pattern, cls, name = _NUMBER_RULES[kind]
    try:  # text past the int-string digit limit, or an int too large for a float
        if (pattern.fullmatch(value) if isinstance(value, str)
                else isinstance(value, cls) and not isinstance(value, bool)):
            out = kind(value)
            if kind is int or math.isfinite(out):
                return out
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {value!r} is not {name}")


def _parse_line(line: str, only: tuple[str, int] | None = None, smap: SpecialtyMap | None = None
                ) -> tuple[str, str, PublicationRecord | None]:
    """(id, specialty, record) of one corpus line; the record is None when
    `only=(specialty, year)` is given and the line lies outside that slice.

    The record is `parse_record(json.loads(line))`, and so are the
    exceptions, plus a RecordInvalid for a line that is not an object or
    not UTF-8 and a plain ValueError for an integer past Python's
    int-string digit limit. A canonical line whose values all pass
    validation is read by one regex match instead. Its codes are ISO codes,
    which normalization leaves as they are. With `smap`, the specialty is
    resolved from the journal.
    """
    m = _CANONICAL.fullmatch(line)
    if m is not None:
        citations, codes, doctype, field_, rid, journal, specialty, year = m.groups()
        countries = codes.split('","')
        year, citations = int(year), int(citations)  # both may pass the digit limit
        if rid.strip() and YEAR_MIN <= year <= YEAR_MAX and COUNTRY_CODES.issuperset(countries):
            if smap is not None:
                specialty = smap.resolve(journal) or OTHER_SPECIALTY
            if only is not None and (specialty, year) != only:
                return rid, specialty, None
            return rid, specialty, PublicationRecord(
                id=rid, year=year, journal=journal, specialty=specialty, field=field_,
                doctype=doctype, countries=tuple(sorted(set(map(intern, countries)))),
                citations=citations)
    if not line.isascii() and (bad := _SURROGATE.search(line)) is not None:
        raise RecordInvalid(f"malformed record: not valid UTF-8 at character {bad.start() + 1}")
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise RecordInvalid("malformed record: not an object")
    if smap is not None:
        obj["specialty"] = smap.resolve(str(obj.get("journal", "") or "")) or OTHER_SPECIALTY
    try:
        rec = parse_record(obj)
    except RecordInvalid as exc:
        raise RecordInvalid(exc.reason, obj.get("id")) from None
    inside = only is None or (rec.specialty, rec.year) == only
    return rec.id, rec.specialty, rec if inside else None


def ingest(source, smap: SpecialtyMap) -> Corpus:
    """Ingest a record stream against a specialty map.

    Every input line lands in exactly one bucket: the corpus, or the
    rejection report. Re-ingesting the same stream yields an identical
    corpus. On a duplicate id the last record wins and the superseded one
    is counted as a rejection.
    """
    records: dict[str, PublicationRecord] = {}
    rejections: list[tuple[str, str]] = []
    for n, line in enumerate(_iter_lines(source, "surrogateescape"), start=1):
        if not line.strip():
            continue
        try:
            rec = _parse_line(line, smap=smap)[2]
        except RecordInvalid as exc:
            rid = exc.record_id
            rejections.append((str(rid) if rid else f"line:{n}", exc.reason))
            continue
        except ValueError as exc:  # bad JSON, or an integer past the int-string digit limit
            rejections.append((f"line:{n}", f"malformed record: {getattr(exc, 'msg', exc)}"))
            continue
        if rec.id in records:
            rejections.append((rec.id, "superseded by later record with same id"))
        records[rec.id] = rec
    labels = frozenset(smap.universe) | {OTHER_SPECIALTY}
    return Corpus(records=records, rejections=rejections, specialty_labels=labels)


def filter_records(corpus: Corpus, specialty: str, year: int) -> list[PublicationRecord]:
    """Records matching one (specialty, year) slice, ordered by id.

    An unknown specialty label is an error; a known label with no matching
    records yields an empty list.
    """
    if specialty not in corpus.specialty_labels:
        valid = ", ".join(sorted(corpus.specialty_labels))
        raise ValueError(f"unknown specialty {specialty!r}; valid labels: {valid}")
    return list(corpus._slices.get((specialty, year), ()))


def write_rejections(rejections: Iterable[tuple[str, str]], path: str | Path) -> None:
    """Rejection report as `id,reason` CSV."""
    _write_text(path, _csv_text([("id", "reason"), *rejections]))
