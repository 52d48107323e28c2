import json

import pytest

from collabnet import corpus, syngen
from collabnet.corpus import (
    Corpus,
    PublicationRecord,
    SpecialtyMap,
    filter_records,
    ingest,
    parse_record,
)


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
    assert smap.labels() == ["Seismology", "Virology", "other"]


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
