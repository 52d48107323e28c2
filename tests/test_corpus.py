import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabnet import corpus, syngen
from collabnet.corpus import (
    Corpus,
    PublicationRecord,
    RecordInvalid,
    SpecialtyMap,
    _parse_line,
    filter_records,
    ingest,
    parse_record,
)
from collabnet.countries import ALIASES, COUNTRY_CODES


def make_line(**overrides) -> str:
    obj = {
        "id": "p1", "year": 2013, "journal": "Journal of Virology",
        "field": "Virology", "doctype": "article",
        "countries": ["US", "CN"], "citations": 5,
    }
    obj.update(overrides)
    return json.dumps(obj)


@pytest.fixture(scope="module")
def bundled_map():
    return SpecialtyMap.bundled()


def test_well_formed_record_accepted(bundled_map):
    corp = ingest([make_line()], bundled_map)
    assert len(corp) == 1
    rec = corp.records["p1"]
    assert rec.year == 2013
    assert rec.countries == ("CN", "US")
    assert rec.citations == 5


def test_empty_country_set_rejected(bundled_map):
    corp = ingest([make_line(countries=[])], bundled_map)
    assert len(corp) == 0
    assert corp.rejections == [("p1", "empty country set")]


def test_unknown_country_code_echoed(bundled_map):
    corp = ingest([make_line(countries=["US", "QQ"])], bundled_map)
    assert corp.rejections == [("p1", "unknown country code: QQ")]


def test_legacy_codes_normalized(bundled_map):
    corp = ingest([make_line(countries=["uk", "SU", "TP"])], bundled_map)
    assert corp.records["p1"].countries == ("GB", "RU", "TL")


def test_duplicate_codes_collapse(bundled_map):
    corp = ingest([make_line(countries=["US", "us", "UK", "GB"])], bundled_map)
    assert corp.records["p1"].countries == ("GB", "US")


def test_bundled_map_resolves_virology_journal(bundled_map):
    assert bundled_map.resolve("Journal of Virology") == "Virology"
    assert bundled_map.resolve("  journal of  virology ") == "Virology"
    assert bundled_map.resolve("Journal of Nonexistence") is None
    corp = ingest([make_line()], bundled_map)
    assert corp.records["p1"].specialty == "Virology"


def test_unmapped_journal_falls_back_to_other(bundled_map):
    corp = ingest([make_line(journal="Unknown Quarterly")], bundled_map)
    assert corp.records["p1"].specialty == "other"


def test_malformed_line_rejected_not_fatal(bundled_map):
    corp = ingest(["{not json", make_line()], bundled_map)
    assert len(corp) == 1
    assert corp.rejections[0][0] == "line:1"
    assert corp.rejections[0][1].startswith("malformed record")


@pytest.mark.parametrize("overrides,reason", [
    ({"year": "2013"}, "invalid year"),
    ({"year": 1875}, "year out of range: 1875"),
    ({"citations": -1}, "negative citations: -1"),
    ({"citations": 2.5}, "invalid citations"),
    ({"id": ""}, "missing id"),
    # a text field that is not text, which str() would have turned into some
    ({"doctype": float("nan")}, "invalid doctype"),
    ({"journal": ["Journal of Virology"]}, "invalid journal"),
    ({"field": True}, "invalid field"),
])
def test_validation_reasons(bundled_map, overrides, reason):
    corp = ingest([make_line(**overrides)], bundled_map)
    reported = corp.rejections[0][1]
    assert reported == reason


def test_duplicate_id_last_wins_and_counts(bundled_map):
    lines = [make_line(citations=1), make_line(citations=9)]
    corp = ingest(lines, bundled_map)
    assert corp.records["p1"].citations == 9
    assert corp.rejections == [("p1", "superseded by later record with same id")]
    assert len(corp) + len(corp.rejections) == 2


def test_ingest_resolves_the_specialty_on_both_line_paths(bundled_map):
    obj = json.loads(make_line(specialty="Seismology", countries=["CN", "US"]))
    fast, slow = canonical(obj), json.dumps({**obj, "id": "p2"}) + "\n"
    assert corpus._CANONICAL.fullmatch(fast) and not corpus._CANONICAL.fullmatch(slow)
    corp = ingest([fast, slow], bundled_map)
    assert [(r.id, r.specialty) for r in corp] == [("p1", "Virology"), ("p2", "Virology")]
    assert corp.records["p1"] == parse_record({**obj, "specialty": "Virology"})


def test_iteration_and_filter_follow_id_order_after_ingest(bundled_map):
    ids = ["p9", "p10", "a", "p1", "Z", "p10"]  # p10 twice: the later line wins
    lines = [make_line(id=rid, year=2008 if n % 2 else 2013, citations=n)
             for n, rid in enumerate(ids)]
    corp = ingest(lines, bundled_map)
    assert list(corp.records) == [r.id for r in corp] == sorted(set(ids))
    assert corp.records["p10"].citations == 5
    with pytest.raises(TypeError):  # read-only, so the id order cannot be broken
        corp.records["0"] = corp.records["a"]
    for year in (2008, 2013):
        got = [r.id for r in filter_records(corp, "Virology", year)]
        assert got == sorted(r.id for r in corp if r.year == year)


def test_accounting_identity(bundled_map):
    lines = [
        make_line(id="a"),
        make_line(id="b", countries=[]),
        "garbage",
        make_line(id="a", citations=7),
        make_line(id="c", countries=["ZZ"]),
    ]
    corp = ingest(lines, bundled_map)
    assert len(corp) + len(corp.rejections) == len(lines)


def test_ingest_idempotent_bytes(bundled_map, tmp_path):
    lines = [make_line(id=f"p{i}", citations=i) for i in range(20)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ingest(lines, bundled_map).save(a)
    ingest(lines, bundled_map).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_save_load_round_trip(bundled_map, tmp_path):
    lines = [make_line(id=f"p{i}") for i in range(5)]
    corp = ingest(lines, bundled_map)
    p = tmp_path / "corpus.jsonl"
    corp.save(p)
    loaded = Corpus.load(p)
    assert loaded.records == corp.records


def test_filter_exact_slice(bundled_map):
    lines = [
        make_line(id="v1"), make_line(id="v2"), make_line(id="v3"),
        make_line(id="v4", year=2008),
        make_line(id="s1", journal="Journal of Seismology"),
    ]
    corp = ingest(lines, bundled_map)
    got = filter_records(corp, "Virology", 2013)
    assert [r.id for r in got] == ["v1", "v2", "v3"]


def test_filter_empty_slice_is_not_an_error(bundled_map):
    corp = ingest([make_line()], bundled_map)
    assert filter_records(corpus=corp, specialty="Virology", year=1990) == []


def test_filter_unknown_specialty_names_valid_labels(bundled_map):
    corp = ingest([make_line()], bundled_map)
    with pytest.raises(ValueError, match="unknown specialty") as exc:
        filter_records(corp, "Alchemy", 2013)
    assert "Virology" in str(exc.value)
    assert "other" in str(exc.value)


def test_filter_counts_match_generator_log_scan():
    cfg = syngen.GenConfig.default(seed=99, n_papers=100)
    records, truth = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(),
                  syngen.specialty_map_for(cfg))
    assert len(corp) == 100
    expected = sum(1 for row in truth
                   if row.field == "Seismology" and row.year == 2008)
    got = filter_records(corp, "Seismology", 2008)
    assert len(got) == expected


def test_filter_partitions_corpus():
    cfg = syngen.GenConfig.default(seed=3, n_papers=200)
    records, _ = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(),
                  syngen.specialty_map_for(cfg))
    seen: set[str] = set()
    total = 0
    for spec in corp.specialty_labels:
        for year in (2008, 2013):
            chunk = filter_records(corp, spec, year)
            ids = {r.id for r in chunk}
            assert not ids & seen
            seen |= ids
            total += len(chunk)
    assert total == len(corp)


LABELS = ("Virology", "Seismology", "other")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.text("abz019", min_size=1, max_size=4), st.sampled_from(LABELS),
                          st.sampled_from([2008, 2013, 2100])), max_size=30),
       st.sampled_from(["Alchemy", "virology", ""]))
def test_filter_records_equals_a_full_scan(rows, unknown):
    records = {rid: PublicationRecord(id=rid, year=year, journal="J", specialty=specialty,
                                      field="F", doctype="article", countries=("US",),
                                      citations=0)
               for rid, specialty, year in rows}
    corp = Corpus(records=records, specialty_labels=frozenset(LABELS))
    for specialty in LABELS:
        for year in (1990, 2008, 2013, 2100):  # no record has 1990: an empty slice
            got = filter_records(corp, specialty, year)
            assert got == [r for r in corp if r.specialty == specialty and r.year == year]
            got.append(None)  # a new list: the corpus's slice is not changed
            assert None not in filter_records(corp, specialty, year)
    with pytest.raises(ValueError) as exc:
        filter_records(corp, unknown, 2013)
    assert str(exc.value) == (f"unknown specialty {unknown!r}; "
                              "valid labels: Seismology, Virology, other")
    with pytest.raises(dataclasses.FrozenInstanceError):  # the slices cannot go stale
        corp.records = {}


def test_specialty_map_rejects_label_outside_universe():
    with pytest.raises(ValueError, match="not in the universe"):
        SpecialtyMap({"Journal X": "Astrology"}, universe=("Virology",))


def test_specialty_map_rejects_duplicate_journal():
    with pytest.raises(ValueError, match="duplicate journal"):
        SpecialtyMap({"Journal X": "Virology", "JOURNAL  X": "Seismology"},
                     universe=("Virology", "Seismology"))


def test_specialty_map_csv_round_trip(tmp_path):
    p = tmp_path / "map.csv"
    p.write_text("journal,specialty\nJournal A,Virology\nJournal B,Seismology\n")
    smap = SpecialtyMap.from_csv(p)
    assert smap.resolve("journal a") == "Virology"
    assert smap.universe == {"Seismology", "Virology"}


def test_parse_record_sorts_countries_canonically():
    a = parse_record(json.loads(make_line(countries=["US", "CN", "DE"])))
    b = parse_record(json.loads(make_line(countries=["DE", "US", "CN"])))
    assert a == b
    assert a.countries == ("CN", "DE", "US")


def test_record_is_international():
    single = parse_record(json.loads(make_line(countries=["US"])))
    multi = parse_record(json.loads(make_line(countries=["US", "CN"])))
    assert not single.is_international()
    assert multi.is_international()


def test_write_rejections_csv(tmp_path):
    p = tmp_path / "rej.csv"
    corpus.write_rejections([("p1", "empty country set")], p)
    assert p.read_text() == "id,reason\np1,empty country set\n"


def test_crlf_files_read_like_lf(bundled_map, tmp_path):
    from collabnet import impact, longit, metrics, netbuild

    def both(name: str, text: str):
        """Paths to the text with LF and with CRLF line endings."""
        lf, crlf = tmp_path / f"lf-{name}", tmp_path / f"crlf-{name}"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert b"\r\n" in crlf.read_bytes()
        return lf, crlf

    lines = [make_line(id=f"p{i}", citations=i) for i in range(5)] + ["{oops", ""]
    lf, crlf = both("raw.jsonl", "\n".join(lines) + "\n")
    a, b = ingest(lf, bundled_map), ingest(crlf, bundled_map)
    assert (a.records, a.rejections) == (b.records, b.rejections)
    a.save(tmp_path / "corpus.jsonl")
    lf, crlf = both("corpus.jsonl", (tmp_path / "corpus.jsonl").read_text())
    assert Corpus.load(lf).records == Corpus.load(crlf).records == a.records

    lf, crlf = both("map.csv", "journal,specialty\nJ One,Virology\n\"J, Two\",Seismology\n")
    assert SpecialtyMap.from_csv(lf)._entries == SpecialtyMap.from_csv(crlf)._entries

    net = netbuild.network_of_size(8, 12)
    lf, crlf = both("net.csv", netbuild.export_edgelist(net))
    assert netbuild.read_edgelist(lf) == netbuild.read_edgelist(crlf)
    assert netbuild.read_edgelist(crlf).edges == net.edges

    lf, crlf = both("stats.csv", metrics.stats_csv_text([metrics.compute_stats(net)]))
    assert longit.read_stats_csv(lf) == longit.read_stats_csv(crlf)

    obs = [impact.make_observation(("CN", "US"), 2013, [0.5, 1.5])]
    impact.write_observations(obs, tmp_path / "obs.csv")
    lf, crlf = both("obs.csv", (tmp_path / "obs.csv").read_text())
    assert impact.read_observations(lf) == impact.read_observations(crlf) == obs


# ------------------------------------------------- the shared line parser

def canonical(obj: dict, **kwargs) -> str:
    """A line as `Corpus.save` writes it (with ensure_ascii=False, as a
    hand-written file may have it)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), **kwargs) + "\n"


def test_no_alias_is_an_iso_code():
    # so normalization leaves a known code as it is, which the fast path relies on
    assert ALIASES.keys().isdisjoint(COUNTRY_CODES)


# Each mutation turns a valid record object into a line; `key` names a field.
MUTATIONS = {
    "none": lambda o, key: canonical(o),
    "whitespace id": lambda o, key: canonical({**o, "id": " \u3000"}, ensure_ascii=False),
    "alias code": lambda o, key: canonical({**o, "countries": o["countries"] + ["UK"]}),
    "lowercase code": lambda o, key: canonical({**o, "countries": [c.lower() for c in o["countries"]]}),
    "duplicate code": lambda o, key: canonical({**o, "countries": o["countries"] * 2}),
    "unknown code": lambda o, key: canonical({**o, "countries": ["QQ"]}),
    "empty countries": lambda o, key: canonical({**o, "countries": []}),
    "\\u escape": lambda o, key: canonical({**o, key: "Zürich"} if key != "countries" else o),
    "raw non-ASCII": lambda o, key: canonical({**o, "journal": "Zürich", "id": "ü-1"},
                                              ensure_ascii=False),
    "quote in a string": lambda o, key: canonical({**o, "field": 'a "b"'}),
    "leading zero": lambda o, key: canonical(o).replace('"citations":', '"citations":0'),
    "-0": lambda o, key: canonical({**o, "citations": 0}).replace('"citations":0', '"citations":-0'),
    "year 1899": lambda o, key: canonical({**o, "year": 1899}),
    "year 2101": lambda o, key: canonical({**o, "year": 2101}),
    "year as a string": lambda o, key: canonical({**o, "year": str(o["year"])}),
    "BOM": lambda o, key: "\ufeff" + canonical(o),
    "CRLF": lambda o, key: canonical(o)[:-1] + "\r\n",
    "no line ending": lambda o, key: canonical(o)[:-1],
    "trailing space": lambda o, key: canonical(o)[:-1] + " \n",
    "spaced": lambda o, key: json.dumps(o, sort_keys=True) + "\n",
    "unsorted keys": lambda o, key: json.dumps(o, separators=(",", ":")) + "\n",
    "extra key": lambda o, key: canonical({**o, key + "_x": 1, "aaa": None}),
    "missing key": lambda o, key: canonical({k: v for k, v in o.items() if k != key}),
    "null value": lambda o, key: canonical({**o, key: None}),
    "not an object": lambda o, key: json.dumps(list(o.values())) + "\n",
}
KEYS = ("citations", "countries", "doctype", "field", "id", "journal", "specialty", "year")
FAST = ("none", "duplicate code", "raw non-ASCII", "CRLF", "no line ending")


def reference(line: str) -> PublicationRecord:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise RecordInvalid("malformed record: not an object")
    return parse_record(obj)


def outcome(parse, line: str):
    try:
        return parse(line)
    except (ValueError, RecordInvalid) as exc:
        return type(exc), str(exc)


@st.composite
def mutated_lines(draw):
    obj = {
        "id": draw(st.sampled_from(["p1", "W:000123", "a b", "x" * 40])),
        "year": draw(st.integers(1900, 2100)),
        "journal": draw(st.sampled_from(["Journal of Virology", "", "J. Geophys."])),
        "field": draw(st.sampled_from(["Virology", "Seismology"])),
        "doctype": draw(st.sampled_from(["article", "review"])),
        "specialty": draw(st.sampled_from(["Virology", "other", ""])),
        "countries": draw(st.lists(st.sampled_from(sorted(COUNTRY_CODES)), min_size=1,
                                   max_size=4)),
        "citations": draw(st.integers(0, 10 ** 12)),
    }
    name = draw(st.sampled_from(sorted(MUTATIONS)))
    return name, MUTATIONS[name](obj, draw(st.sampled_from(KEYS)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_lines())
def test_line_parser_matches_json_then_parse_record(case):
    name, line = case
    expected = outcome(reference, line)
    assert outcome(lambda text: _parse_line(text)[2], line) == expected
    if name in FAST:
        assert corpus._CANONICAL.fullmatch(line) is not None
    if isinstance(expected, PublicationRecord):
        inside = (expected.specialty, expected.year)
        assert _parse_line(line, only=inside) == (expected.id, expected.specialty, expected)
        outside = (expected.specialty, expected.year + 1)
        assert _parse_line(line, only=outside) == (expected.id, expected.specialty, None)


def test_ingest_reports_non_objects_by_line(bundled_map):
    corp = ingest([make_line(), "[1,2]", "null", "3"], bundled_map)
    assert corp.rejections == [(f"line:{n}", "malformed record: not an object")
                               for n in (2, 3, 4)]


# ------------------------------------------------------- slice-only loads

def slice_test_corpus(tmp_path) -> str:
    """A saved syngen corpus, then hand-written lines: an id moved to another
    slice, a stored specialty that a later line supersedes, one outside the
    default labels that stays, and lines only the slow path reads."""
    cfg = syngen.GenConfig.default(seed=5, n_papers=300)
    records, _ = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(), syngen.specialty_map_for(cfg))
    path = tmp_path / "corpus.jsonl"
    corp.save(path)
    moved = next(r for r in corp if (r.specialty, r.year) == ("Virology", 2013))
    extra = [
        canonical({**moved.to_json_obj(), "year": 2008}),
        canonical({**moved.to_json_obj(), "id": "alchemist", "specialty": "Alchemy"}),
        json.dumps({**moved.to_json_obj(), "id": "alchemist"}) + "\n",
        canonical({**moved.to_json_obj(), "id": "geologist", "specialty": "Geology"}),
        json.dumps({**moved.to_json_obj(), "id": "spaced", "countries": ["uk", "US"]}) + "\n",
    ]
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(extra)
    return path


def test_slice_load_equals_filtered_full_load(tmp_path):
    path = slice_test_corpus(tmp_path)
    full = Corpus.load(path)
    assert "Alchemy" not in full.specialty_labels  # its only record was superseded
    assert "Geology" in full.specialty_labels
    for specialty in sorted(full.specialty_labels) + ["Alchemy"]:
        for year in (2008, 2013, 1990):
            part = Corpus.load(path, only=(specialty, year))
            assert part.specialty_labels == full.specialty_labels
            expected = outcome(lambda s: filter_records(full, s, year), specialty)
            assert outcome(lambda s: filter_records(part, s, year), specialty) == expected
            assert list(part) == (expected if isinstance(expected, list) else [])


def test_slice_load_keeps_the_last_record_of_a_moved_id(tmp_path):
    path = slice_test_corpus(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    moved_id = json.loads(lines[-5])["id"]
    assert moved_id not in Corpus.load(path, only=("Virology", 2013)).records
    assert Corpus.load(path, only=("Virology", 2008)).records[moved_id].year == 2008
    assert "spaced" in Corpus.load(path, only=("Virology", 2013)).records


def test_loads_follow_id_order_with_a_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [json.loads(make_line(id=rid, year=year, specialty="Virology"))
             for rid, year in [("p3", 2013), ("p1", 2013), ("p2", 2008), ("p0", 2013),
                               ("p1", 2008), ("p3", 2013)]]
    path.write_text("".join(canonical(obj) for obj in lines), encoding="utf-8")
    full = Corpus.load(path)
    assert [r.id for r in full] == ["p0", "p1", "p2", "p3"]
    for year, ids in ((2013, ["p0", "p3"]), (2008, ["p1", "p2"])):
        part = Corpus.load(path, only=("Virology", year))
        assert [r.id for r in part] == list(part.records) == ids
        assert [r.id for r in filter_records(part, "Virology", year)] == ids
        assert [r.id for r in filter_records(full, "Virology", year)] == ids


@pytest.mark.parametrize("bad,message", [
    (make_line(id="x", year=1875, journal="J", field="F"), "year out of range: 1875"),
    ("[1,2]", "malformed record: not an object"),
    ("{oops", "Expecting property name enclosed in double quotes"),
    (make_line(id="x", specialty=1.5), "invalid specialty"),  # as stored, not resolved
])
def test_slice_load_validates_lines_outside_the_slice(tmp_path, bad, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([make_line(id="a"), make_line(id="b", year=2008), bad,
                               make_line(id="c")]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"corpus.jsonl:3: {message}"):
        Corpus.load(path, only=("Virology", 2013))
