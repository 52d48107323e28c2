import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collabnet
from collabnet.cli import main
from collabnet.metrics import read_stats_csv
from collabnet.netbuild import export_edgelist, export_graphml, network_of_size


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv: str) -> int:
    return main(list(argv))


def gen_corpus(workdir: Path, seed: int = 42, n_papers: int = 600) -> Path:
    assert run("gen", "--seed", str(seed), "--out", "raw.jsonl",
               "--truth-out", "truth.csv", "--map-out", "map.csv",
               "--n-papers", str(n_papers)) == 0
    assert run("ingest", "--input", "raw.jsonl", "--map", "map.csv",
               "--out", "corpus.jsonl") == 0
    return workdir / "corpus.jsonl"


def test_pipeline_smoke_with_handshake(workdir):
    gen_corpus(workdir)
    assert run("build", "--input", "corpus.jsonl", "--specialty", "Virology",
               "--year", "2013", "--out", "net.csv") == 0
    assert run("stats", "--input", "net.csv", "--specialty", "Virology",
               "--year", "2013", "--out", "stats.csv") == 0
    rows = read_stats_csv(workdir / "stats.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["specialty"] == "Virology"
    assert row["avg_degree"] == pytest.approx(2 * row["edges"] / row["nodes"], rel=1e-9)


def test_stats_on_complete_graph_reports_density_one(workdir):
    (workdir / "k4.csv").write_text(
        "source,target,copub_count,cosine\n"
        "A,B,1,\nA,C,1,\nA,D,1,\nB,C,1,\nB,D,1,\nC,D,1,\n")
    assert run("stats", "--input", "k4.csv", "--out", "k4stats.csv") == 0
    row = read_stats_csv(workdir / "k4stats.csv")[0]
    assert row["density"] == 1.0
    assert row["avg_degree"] == 3.0


def test_unknown_flag_exits_one(workdir, capsys):
    assert run("stats", "--bogus") == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_validation_error_exits_one(workdir):
    gen_corpus(workdir)
    assert run("build", "--input", "corpus.jsonl", "--specialty", "Alchemy",
               "--year", "2013", "--out", "x.csv") == 1


@pytest.mark.parametrize("rows,message", [
    ("US,US\nUS,DE\nDE,FR\nFR,GB\n", "line 1: self-loop US-US"),
    ("US,DE,2\nDE,US,5\n", "line 2: duplicate pair DE-US"),
    ("US\n", "line 1: expected at least 2 columns"),
    ("US,DE,x\n", "line 1: copub_count 'x' is not an integer"),
    ("US,DE,-3\nDE,FR,1\nFR,GB,1\n", "line 1: copub_count must be positive, got -3"),
    ("US,\nDE,FR\nFR,GB\n", "line 1: missing endpoint"),
    ("US,DE,1,abc\n", "line 1: cosine 'abc' is not a number"),
    # a quoted endpoint spans lines 2-3, so the next row is on line 4
    ('source,target\n"U\nS",DE,1,\nUS,US,1,\n', "line 4: self-loop US-US"),
    # number forms that int() and float() read, but the input rule does not
    ("US,DE,1_000\n", "line 1: copub_count '1_000' is not an integer"),
    ("US,DE,\u0663\n", "line 1: copub_count '\u0663' is not an integer"),
    ("US,DE,1,0_5\n", "line 1: cosine '0_5' is not a number"),
])
def test_non_simple_edgelist_exits_one(workdir, capsys, rows, message):
    (workdir / "bad.csv").write_text(rows)
    assert run("stats", "--input", "bad.csv", "--out", "stats.csv") == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "stats.csv").exists()


@pytest.mark.parametrize("command", ["stats", "export"])
@pytest.mark.parametrize("nodes,edges,message", [
    ("DE FR US", [("US", None)], "<edge> 1: missing endpoint"),
    ("DE FR US", [("US", "DE"), ("FR", "GB")], "<edge> 2: endpoint 'GB' is not a declared node"),
    # the triangle US-DE-FR, US declared twice
    ("US DE FR US", [("US", "DE"), ("DE", "FR"), ("FR", "US")], "<node> 4: duplicate node US"),
    ("DE US", [("US", "DE", "abc")], "<edge> 1: cosine 'abc' is not a number"),
])
def test_malformed_graphml_exits_one(workdir, capsys, command, nodes, edges, message):
    def edge(source, target, cosine=None):
        ends = f' source="{source}"' + (f' target="{target}"' if target else "")
        data = f'<data key="cosine">{cosine}</data>' if cosine else ""
        return f"<edge{ends}>{data}</edge>"

    (workdir / "bad.graphml").write_text(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        '<graph id="collab" edgedefault="undirected">'
        + "".join(f'<node id="{v}"/>' for v in nodes.split())
        + "".join(edge(*e) for e in edges) + "</graph></graphml>")
    assert run(command, "--input", "bad.graphml", "--out", "out.csv") == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("command", ["build", "regress"])
@pytest.mark.parametrize("line", ["[1,2]", '"x"', "null", "3"])
def test_non_object_corpus_line_exits_one_with_its_location(workdir, capsys, command, line):
    corpus_path = gen_corpus(workdir, n_papers=50)
    lines = corpus_path.read_text().splitlines()
    corpus_path.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n")
    extra = ["--specialty", "Virology", "--year", "2013"] if command == "build" else []
    assert run(command, "--input", "corpus.jsonl", *extra, "--out", "out.txt") == 1
    assert "corpus.jsonl:3: malformed record: not an object" in capsys.readouterr().err
    assert not (workdir / "out.txt").exists()


@pytest.mark.parametrize("command", ["stats", "export"])
def test_graphml_year_that_is_not_an_integer_exits_one(workdir, capsys, command):
    (workdir / "bad.graphml").write_text(
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        '<graph id="collab" edgedefault="undirected"><data key="year">20x3</data>'
        '<node id="DE"/><node id="FR"/><node id="US"/>'
        '<edge source="US" target="DE"/><edge source="DE" target="FR"/></graph></graphml>')
    assert run(command, "--input", "bad.graphml", "--out", "out.csv") == 1
    assert """<data key="year">: year '20x3' is not an integer""" in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("command", ["stats", "export"])
def test_graphml_that_is_not_well_formed_xml_exits_one(workdir, capsys, command):
    (workdir / "bad.graphml").write_text("<graphml><graph>")
    assert run(command, "--input", "bad.graphml", "--out", "out.csv") == 1
    err = capsys.readouterr().err
    assert "bad.graphml: not well-formed XML: no element found: line 1, column 16" in err
    assert not (workdir / "out.csv").exists()


@pytest.mark.parametrize("command", ["stats", "export"])
def test_graphml_declaring_an_unknown_encoding_exits_one(workdir, capsys, command):
    (workdir / "bad.graphml").write_text('<?xml version="1.0" encoding="abc"?><graphml/>')
    assert run(command, "--input", "bad.graphml", "--out", "out.csv") == 1
    assert "error: bad.graphml: line 1: unknown encoding: abc\n" in capsys.readouterr().err
    assert not (workdir / "out.csv").exists()


def test_stats_names_the_file_of_a_network_too_small_for_a_statistic(workdir, capsys):
    (workdir / "good.csv").write_text("US,DE\nDE,FR\nFR,GB\n")
    (workdir / "pair.csv").write_text("US,DE\n")
    assert run("stats", "--input", "good.csv", "pair.csv", "--out", "stats.csv") == 1
    assert ("error: pair.csv: centralization undefined: need at least 3 nodes\n"
            in capsys.readouterr().err)
    assert not (workdir / "stats.csv").exists()


def test_stats_names_the_file_of_a_bad_network(workdir, capsys):
    (workdir / "good.csv").write_text("US,DE\nDE,FR\nFR,GB\n")
    (workdir / "bad.csv").write_text("US,DE\nDE,FR\nFR,GB\nFR,FR\n")
    assert run("stats", "--input", "good.csv", "bad.csv", "--out", "stats.csv") == 1
    assert "error: bad.csv: line 4: self-loop FR-FR" in capsys.readouterr().err
    assert not (workdir / "stats.csv").exists()


def huge_citation_lines(workdir) -> list[str]:
    """A good corpus line, then the same record with a 5000-digit citation
    count, once canonical (the regex path) and once spaced (json.loads)."""
    good = gen_corpus(workdir, n_papers=50).read_text().splitlines()[0]
    obj = json.loads(good)
    head, _, tail = good.partition(f'"citations":{obj["citations"]}')
    canonical = head + '"citations":' + "9" * 5000 + tail
    spaced = json.dumps({**obj, "id": "huge"}).replace(
        f'"citations": {obj["citations"]}', '"citations": ' + "9" * 5000)
    return [good, canonical, spaced]


def test_ingest_rejects_an_integer_past_the_digit_limit_by_line(workdir):
    (workdir / "huge.jsonl").write_text("\n".join(huge_citation_lines(workdir)) + "\n")
    assert run("ingest", "--input", "huge.jsonl", "--map", "map.csv", "--out", "c.jsonl") == 0
    rejections = (workdir / "c.jsonl.rejections.csv").read_text().splitlines()
    assert [row.partition(",")[0] for row in rejections] == ["id", "line:2", "line:3"]
    for row in rejections[1:]:
        assert row.partition(",")[2].startswith("malformed record: Exceeds the limit (4300 digits)")
    assert len((workdir / "c.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize("which", [1, 2])
def test_build_names_the_line_of_an_integer_past_the_digit_limit(workdir, capsys, which):
    # the record lies outside the built slice, which is validated all the same
    lines = huge_citation_lines(workdir)
    (workdir / "huge.jsonl").write_text(lines[0] + "\n" + lines[which] + "\n")
    assert run("build", "--input", "huge.jsonl", "--specialty", "Virology",
               "--year", "2013", "--out", "net.csv") == 1
    assert "error: huge.jsonl:2: Exceeds the limit (4300 digits)" in capsys.readouterr().err
    assert not (workdir / "net.csv").exists()


def non_utf8_lines(workdir) -> list[bytes]:
    """A good corpus line, then the same record with a byte that is not UTF-8
    in its journal, once canonical (the regex path) and once spaced (json.loads)."""
    good = gen_corpus(workdir, n_papers=50).read_bytes().splitlines()[0]
    spaced = json.dumps({**json.loads(good), "id": "spaced"}).encode()
    return [good] + [line.replace(b'Journal of', b'Journal \xff of') for line in (good, spaced)]


def test_ingest_rejects_a_line_that_is_not_utf8_by_line(workdir):
    lines = non_utf8_lines(workdir)
    (workdir / "bad.jsonl").write_bytes(b"\n".join(lines) + b"\n")
    assert run("ingest", "--input", "bad.jsonl", "--map", "map.csv", "--out", "c.jsonl") == 0
    rejections = (workdir / "c.jsonl.rejections.csv").read_text().splitlines()
    columns = [line.index(b"\xff") + 1 for line in lines[1:]]
    assert rejections == ["id,reason"] + [
        f"line:{n},malformed record: not valid UTF-8 at character {column}"
        for n, column in zip((2, 3), columns)]
    assert (workdir / "c.jsonl").read_bytes() == lines[0] + b"\n"


@pytest.mark.parametrize("command", ["build", "regress"])
@pytest.mark.parametrize("which", [1, 2])
def test_corpus_line_that_is_not_utf8_exits_one_with_its_location(workdir, capsys,
                                                                  command, which):
    lines = non_utf8_lines(workdir)
    (workdir / "bad.jsonl").write_bytes(lines[0] + b"\n" + lines[which] + b"\n")
    extra = ["--specialty", "Virology", "--year", "2013"] if command == "build" else []
    assert run(command, "--input", "bad.jsonl", *extra, "--out", "out.txt") == 1
    column = lines[which].index(b"\xff") + 1
    assert (f"error: bad.jsonl:2: malformed record: not valid UTF-8 at character {column}"
            in capsys.readouterr().err)
    assert not (workdir / "out.txt").exists()


OBSERVATIONS = "combo_id,year,country_count,publication_count,mean_fwci,log_fwci\n"
GOOD_ROW = "DE-US,2013,2,1,1.5,0.47000362924573563\n"  # log_fwci = ln(1.5 + 0.1)


@pytest.mark.parametrize("text,message", [
    (OBSERVATIONS + GOOD_ROW + "DE-FR,2013,2,3,1.0,nan\n",
     "line 3: log_fwci 'nan' is not a number"),
    (OBSERVATIONS + "DE-US,2013,2,1,inf,inf\n",
     "line 2: mean_fwci 'inf' is not a number"),
    (OBSERVATIONS.replace("combo_id,", "") + GOOD_ROW.replace("DE-US,", ""),
     "line 1: missing column(s) combo_id"),
    (OBSERVATIONS + GOOD_ROW.replace(",2,", ",3,", 1),
     "line 2: country_count 3 but combo_id DE-US has 2 countries"),
    (OBSERVATIONS + GOOD_ROW + "DE-FR,2013,2\n", "line 3: expected 6 columns"),
    (OBSERVATIONS + GOOD_ROW + "DE-FR,2013,2,3,-0.05,-2.995732273553991\n",
     "line 3: mean_fwci -0.05 is negative"),
    (OBSERVATIONS + GOOD_ROW + "DE-FR,2013,2,3,1.5,0.47\n",
     "line 3: log_fwci 0.47 is not ln(mean_fwci + 0.1) = 0.47000362924573563"),
    (OBSERVATIONS + GOOD_ROW.replace("2013", "1" + "0" * 30),
     "line 2: year 1" + "0" * 30 + " is outside 1900-2100"),
    (OBSERVATIONS + GOOD_ROW + "DE-FR,2013,2,0,1.5,0.47000362924573563\n",
     "line 3: publication_count 0 is outside 1-9007199254740992"),
    (OBSERVATIONS + "DE-FR,2013,2,9007199254740993,1.5,0.47000362924573563\n",
     "line 2: publication_count 9007199254740993 is outside 1-9007199254740992"),
    (OBSERVATIONS + GOOD_ROW + "US,2013,1,3,1.5,0.47000362924573563\n",
     "line 3: country_count 1 is below 2"),
    (OBSERVATIONS + GOOD_ROW.replace("2013", "2_013"), "line 2: year '2_013' is not an integer"),
    (OBSERVATIONS + GOOD_ROW.replace(",1,", ",\u0661,"),
     "line 2: publication_count '\u0661' is not an integer"),
    (OBSERVATIONS + GOOD_ROW.replace("2013", ""), "line 2: year '' is not an integer"),
], ids=["nan", "inf", "missing-column", "country-count", "short-row", "negative", "log",
        "year", "no-publications", "huge-publications", "one-country", "year-underscore",
        "arabic-indic-count", "empty-year"])
def test_regress_rejects_a_bad_observation_csv_by_line(workdir, capsys, text, message):
    (workdir / "obs.csv").write_text(text)
    assert run("regress", "--input", "obs.csv", "--out", "report.txt") == 1
    assert f"error: obs.csv: {message}" in capsys.readouterr().err
    assert not (workdir / "report.txt").exists()


def observation_rows() -> list[list[str]]:
    """A header and 16 rows that fit: eight combinations, each in two years."""
    rows = [OBSERVATIONS.strip().split(",")]
    for i, combo in enumerate(["DE-US", "FR-GB", "DE-FR-US", "CN-JP", "BR-US", "GB-IN-US",
                               "AU-NZ", "CA-FR-GB-US"]):
        for year in (2008, 2013):
            mean = 0.25 + (3 * i + (year - 2008) * (i + 1)) % 7 / 3
            rows.append([combo, str(year), str(combo.count("-") + 1), str(1 + (i + year) % 4),
                         repr(mean), repr(math.log(mean + 0.1))])
    return rows


# mutations of one number cell into a form that int() or float() reads (all but "bool")
# and the input rule rejects, so each must fail
NUMBER_KINDS = ("underscore digits", "non-ASCII digit", "float for int", "bool")


def mutate_number(draw, kind: str, text: str) -> str:
    """`text`, a number as the program writes it, under one of NUMBER_KINDS."""
    if kind == "underscore digits":  # 2013 -> 2_013, 1 -> 1_0
        out = re.sub(r"([0-9])([0-9])", r"\1_\2", text, count=1)
        return out if out != text else text + "_0"
    if kind == "non-ASCII digit":  # an Arabic-Indic digit
        return re.sub(r"[0-9]", lambda m: chr(0x660 + int(m[0])), text, count=1)
    if kind == "float for int":
        return text + draw(st.sampled_from([".0", ".5", "e0"]))
    return draw(st.sampled_from(["true", "True", "false"]))


@st.composite
def mutated_observation_csv(draw):
    rows = observation_rows()
    kind = draw(st.sampled_from(["none", "truncation", "dropped column", "type swap", "BOM",
                                 "CRLF", "non-UTF-8 byte", "nan/inf", "huge integer",
                                 "constant log_fwci", *NUMBER_KINDS, "empty year"]))
    i = draw(st.integers(1, len(rows) - 1))
    j = draw(st.integers(0, len(rows[0]) - 1))
    if kind in NUMBER_KINDS:  # year and the two counts are ints, the rest floats
        j = draw(st.integers(1, 3 if kind == "float for int" else 5))
        rows[i][j] = mutate_number(draw, kind, rows[i][j])
    elif kind == "empty year":
        rows[i][1] = ""
    elif kind == "dropped column":
        rows = [row[:j] + row[j + 1:] for row in rows]
    elif kind == "type swap":
        rows[i][j] = draw(st.sampled_from(["abc", "1.5", "", "2e3", "-", "true", "DE-US"]))
    elif kind == "nan/inf":
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif kind == "huge integer":
        rows[i][j] = draw(st.sampled_from(["", "-"])) + "1" + "0" * draw(st.integers(15, 5000))
    elif kind == "constant log_fwci":
        for row in rows[1:]:
            row[4:] = ["1.0", repr(math.log(1.1))]
    return kind, mutate_bytes(draw, kind, "".join(",".join(row) + "\n" for row in rows).encode())


BOM = b"\xef\xbb\xbf"


def mutate_bytes(draw, kind: str, data: bytes) -> bytes:
    """`data` under one of the mutations that work on a file's bytes."""
    if kind == "truncation":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "BOM":
        return BOM + data
    if kind == "CRLF":
        return data.replace(b"\n", b"\r\n")
    if kind == "non-UTF-8 byte":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b"\xff" + data[at:]
    return data


# what `lmm.fit_random_intercept` rejects, with no file line to name
MODEL_ERRORS = ("too few observations", "rank-deficient design", "no residual variance")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_observation_csv())
def test_regress_on_a_mutated_observation_csv_exits_cleanly(tmp_path_factory, case):
    kind, data = case
    where = tmp_path_factory.mktemp("fuzz")
    path, out, csv_out = (str(where / name) for name in ("obs.csv", "report.txt", "report.csv"))
    Path(path).write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["regress", "--input", path, "--out", out, "--csv-out", csv_out])
    assert code in (0, 1), (kind, err.getvalue())
    if code == 1:
        message = err.getvalue().removeprefix("collabnet regress: error: ")
        assert (re.match(rf"{re.escape(path)}: line \d+: ", message)
                or message.startswith(MODEL_ERRORS)), (kind, message)
    else:
        assert kind in ("none", "CRLF", "BOM", "type swap", "nan/inf", "huge integer",
                        "truncation")
        for text in (Path(out).read_text(), Path(csv_out).read_text()):
            assert not re.search(r"nan|inf", text, re.IGNORECASE), (kind, text)
    if kind == "BOM":  # read as the file without it
        Path(path).write_bytes(data.removeprefix(BOM))
        reports = [Path(out).read_bytes(), Path(csv_out).read_bytes()]
        with contextlib.redirect_stderr(io.StringIO()):
            main(["regress", "--input", path, "--out", out, "--csv-out", csv_out])
        assert reports == [Path(out).read_bytes(), Path(csv_out).read_bytes()]
    assert (kind, code) not in [("none", 1), ("CRLF", 1), ("BOM", 1), ("constant log_fwci", 0)]
    assert code == 1 or kind not in (*NUMBER_KINDS, "empty year"), kind


# ------------------------------------------------- network and map reader fuzz

MAP_ROWS = [["journal", "specialty"], ["Journal of Virology", "Virology"],
            ["Journal of Seismology", "Seismology"], ["Soil", "Soil Science"]]
MAP_RECORDS = "".join(
    json.dumps({"id": f"p{i}", "year": 2013, "journal": journal, "countries": ["US", "DE"],
                "citations": i}) + "\n" for i, (journal, _) in enumerate(MAP_ROWS[1:]))
# what `metrics` rejects in a network too small for a statistic, with no line to name
STATS_ERRORS = ("degenerate network", "centralization undefined", "no paths")
# what `trends` rejects in a series as a whole, naming the specialty and year if any
SERIES_ERRORS = (r"(no series|mismatched year grids"
                 r"|.* \d+: no (nodes|edges) in the final year)")
# a line, an element by its 1-based index, the graph's year, a missing <graph>,
# or where XML parsing stopped
LOCATED = (r"(line \d+|<edge> \d+|<node> \d+|<data key=\"year\">|no <graph> element"
           r"|not well-formed XML: .*line \d+, column \d+)")


def network_rows() -> list[list[str]]:
    """The header and edges of a six-node network with cosines."""
    net = network_of_size(6, 9, "Virology", 2013)
    return [line.split(",") for line in export_edgelist(net).splitlines()]


@st.composite
def mutated_csv(draw, rows: list[list[str]], numbers: dict[int, type] | None = None,
                year: int | None = None):
    """(kind, bytes) of `rows` under one mutation; the number mutations go to the
    columns `numbers` types, "empty year" to column `year`."""
    rows = [list(row) for row in rows]
    kind = draw(st.sampled_from(["none", "truncation", "dropped column", "type swap", "BOM",
                                 "CRLF", "non-UTF-8 byte", "nan/inf", "huge integer",
                                 "header", *(NUMBER_KINDS if numbers else ()),
                                 *(("empty year",) if year is not None else ())]))
    i = draw(st.integers(1, len(rows) - 1))
    j = draw(st.integers(0, len(rows[0]) - 1))
    if kind in NUMBER_KINDS:
        j = draw(st.sampled_from([c for c, t in numbers.items()
                                  if t is int or kind != "float for int"]))
        rows[i][j] = mutate_number(draw, kind, rows[i][j])
    elif kind == "empty year":
        rows[i][year] = ""
    elif kind == "dropped column":
        rows = [row[:j] + row[j + 1:] for row in rows]
    elif kind == "type swap":
        rows[i][j] = draw(st.sampled_from(["abc", "1.5", "", "2e3", "-", "true", "US"]))
    elif kind == "nan/inf":
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif kind == "huge integer":
        rows[i][j] = draw(st.sampled_from(["", "-"])) + "1" + "0" * draw(st.integers(15, 5000))
    elif kind == "header":  # capitalised or space-padded
        rows[0] = [draw(st.sampled_from([c.upper(), c.title(), f" {c} "])) for c in rows[0]]
    data = "".join(",".join(row) + "\n" for row in rows).encode()
    return kind, mutate_bytes(draw, kind, data)


@st.composite
def mutated_graphml(draw):
    """(kind, bytes) of a GraphML network under one mutation."""
    lines = export_graphml(network_of_size(6, 9, "Virology", 2013)).splitlines()
    kind = draw(st.sampled_from(["none", "truncation", "dropped column", "type swap", "BOM",
                                 "CRLF", "non-UTF-8 byte", "nan/inf", "huge integer",
                                 "malformed XML", *NUMBER_KINDS, "empty year"]))
    i = draw(st.integers(0, len(lines) - 1))
    values = [m for m in re.finditer(r'(?<==")[^"]*|(?<=>)[^<]+', lines[i])]
    if kind in NUMBER_KINDS:  # the year and the counts are ints, the cosines floats
        keys = "year|copub_count" + ("" if kind == "float for int" else "|cosine")
        i = draw(st.sampled_from([n for n, line in enumerate(lines)
                                  if re.search(f'<data key="({keys})">', line)]))
        lines[i] = re.sub(r"(?<=>)[^<]+", lambda m: mutate_number(draw, kind, m[0]), lines[i])
    elif kind == "empty year":
        lines = [re.sub(r'(<data key="year">)[^<]*', r"\1", line) for line in lines]
    elif kind == "dropped column":  # an attribute or a <data> element
        lines[i] = re.sub(draw(st.sampled_from([r' \w+="[^"]*"', r"<data .*?</data>"])), "",
                          lines[i], count=1)
    elif kind in ("type swap", "nan/inf", "huge integer") and values:
        m = draw(st.sampled_from(values))
        value = {"type swap": st.sampled_from(["abc", "1.5", "", "2e3", "-", "US"]),
                 "nan/inf": st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]),
                 "huge integer": st.integers(15, 5000).map(lambda n: "1" + "0" * n)}[kind]
        lines[i] = lines[i][:m.start()] + draw(value) + lines[i][m.end():]
    elif kind == "malformed XML":
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(["<", "&", '"', "</x>"])) + lines[i][at:]
    return kind, mutate_bytes(draw, kind, ("\n".join(lines) + "\n").encode())


def run_quietly(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_mutated_input(where: Path, name: str, kind: str, data: bytes, argv: list[str],
                        clean: bytes, same_as_clean: tuple[str, ...]) -> None:
    """Run `argv` on `data` written to `where/name`: it exits 0, or 1 with a
    message naming the file and a place in it (or, for `trends`, a series); the
    kinds in `same_as_clean` exit 0 with the output of the unmutated file."""
    path, out = str(where / name), str(where / "out")
    outputs = []
    for text in (clean, data):
        Path(path).write_bytes(text)
        code, err = run_quietly([*argv, path, "--out", out])
        outputs.append(Path(out).read_bytes() if code == 0 else None)
    assert code in (0, 1), (kind, err)
    if code == 1:
        message = err.split(": error: ", 1)[1]
        if argv[0] == "trends" and re.match(SERIES_ERRORS, message):
            pass
        else:
            assert message.startswith(f"{path}: "), (kind, message)
            place = message.removeprefix(f"{path}: ")
            assert (re.match(LOCATED, place)
                    or argv[0] == "stats" and place.startswith(STATS_ERRORS)), (kind, message)
    elif argv[0] == "stats":
        assert all(math.isfinite(v) for row in read_stats_csv(out) for col, v in row.items()
                   if col != "specialty" and v is not None), kind
    elif argv[0] == "trends":  # every cell but the specialty label is a finite number
        rows = list(csv.reader(io.StringIO(Path(out).read_text())))[1:]
        assert rows and all(math.isfinite(float(c)) for row in rows for c in row[1:] if c), kind
    if kind in same_as_clean:
        assert outputs[1] == outputs[0] is not None, (kind, err)
    assert code == 1 or kind not in (*NUMBER_KINDS, "empty year"), kind


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["stats", "export"]), mutated_csv(network_rows(), {2: int, 3: float}))
def test_a_mutated_edge_list_exits_cleanly(tmp_path_factory, command, case):
    kind, data = case
    check_mutated_input(tmp_path_factory.mktemp("fuzz"), "net.csv", kind, data,
                        [command, "--input"], "".join(
                            ",".join(row) + "\n" for row in network_rows()).encode(),
                        ("none", "BOM", "CRLF", "header"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["stats", "export"]), mutated_graphml())
def test_a_mutated_graphml_network_exits_cleanly(tmp_path_factory, command, case):
    kind, data = case
    check_mutated_input(tmp_path_factory.mktemp("fuzz"), "net.graphml", kind, data,
                        [command, "--input"],
                        export_graphml(network_of_size(6, 9, "Virology", 2013)).encode(),
                        ("none", "BOM", "CRLF"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_csv(MAP_ROWS))
def test_a_mutated_specialty_map_exits_cleanly(tmp_path_factory, case):
    kind, data = case
    where = tmp_path_factory.mktemp("fuzz")
    (where / "raw.jsonl").write_text(MAP_RECORDS)
    check_mutated_input(where, "map.csv", kind, data,
                        ["ingest", "--input", str(where / "raw.jsonl"), "--map"],
                        "".join(",".join(row) + "\n" for row in MAP_ROWS).encode(),
                        ("none", "BOM", "CRLF", "header"))


def stats_rows() -> list[list[str]]:
    """The header and rows of a stats CSV as `stats` writes it: two specialties in
    two years, every cell but `alpha` filled."""
    from collabnet import metrics

    sizes = [("A", 2008, 5, 6), ("A", 2013, 8, 14), ("B", 2008, 6, 7), ("B", 2013, 9, 16)]
    text = metrics.stats_csv_text(metrics.compute_stats(network_of_size(n, m, spec, year))
                                  for spec, year, n, m in sizes)
    return [line.split(",") for line in text.splitlines()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_csv(stats_rows(), {1: int, 2: int, 3: int, 4: int, 5: float, 6: float,
                                  7: float, 8: float, 9: float, 10: int}, year=1))
def test_trends_on_a_mutated_stats_csv_exits_cleanly(tmp_path_factory, case):
    kind, data = case
    check_mutated_input(tmp_path_factory.mktemp("fuzz"), "stats.csv", kind, data,
                        ["trends", "--input"],
                        "".join(",".join(row) + "\n" for row in stats_rows()).encode(),
                        ("none", "BOM", "CRLF"))


CORPUS_RECORDS = [
    {"id": f"p{i}", "year": (2008, 2013)[i % 2], "journal": "Journal of Virology",
     "specialty": "Virology", "field": "Virology", "doctype": "article",
     "countries": countries, "citations": 3 * i}
    for i, countries in enumerate([["DE", "US"], ["FR", "US"], ["DE", "FR", "US"], ["GB", "US"],
                                   ["CN", "JP"], ["DE", "GB"], ["JP", "US"], ["US"]])]
# a JSON value of another type, or a number in a form JSON or the record rules reject
SWAPS = st.sampled_from(["abc", 1.5, "", None, True, [1], {}, "2013", -1, 0])


def canonical(obj) -> str:
    """`obj` as `Corpus.save` writes a record: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def corpus_bytes() -> bytes:
    return "".join(canonical(rec) + "\n" for rec in CORPUS_RECORDS).encode()


def json_with(obj: dict, path: tuple, text: str) -> str:
    """`obj` as canonical JSON, with `text` written as the raw value at `path`."""
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    node = obj
    for key in parents:
        node = node[key]
    node[last] = "\x00PLACEHOLDER\x00"
    return canonical(obj).replace('"\\u0000PLACEHOLDER\\u0000"', text)


def mutate_json_value(draw, kind: str, value) -> str:
    """The raw JSON text of `value`, a number, under a number mutation: a JSON float
    or bool, a huge integer, or a string holding a form `int()` reads."""
    if kind == "float for int":
        return json.dumps(float(value) + draw(st.sampled_from([0.0, 0.5])))
    if kind == "bool":
        return draw(st.sampled_from(["true", "false"]))
    if kind == "huge integer":
        return draw(st.sampled_from(["", "-"])) + "1" + "0" * draw(st.integers(15, 5000))
    return json.dumps(mutate_number(draw, kind, json.dumps(value)))


@st.composite
def mutated_corpus(draw):
    """(kind, bytes) of the records of CORPUS_RECORDS, one per line, under one mutation."""
    kind = draw(st.sampled_from(["none", "truncation", "BOM", "CRLF", "non-UTF-8 byte",
                                 "dropped key", "type swap", "huge integer", "nan/inf",
                                 *NUMBER_KINDS]))
    lines = corpus_bytes().decode().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key = draw(st.sampled_from(sorted(CORPUS_RECORDS[i])))
    if kind == "dropped key":
        lines[i] = canonical({k: v for k, v in CORPUS_RECORDS[i].items() if k != key})
    elif kind == "type swap":
        lines[i] = json_with(CORPUS_RECORDS[i], (key,), json.dumps(draw(SWAPS)))
    elif kind == "nan/inf":
        lines[i] = json_with(CORPUS_RECORDS[i], (key,),
                             draw(st.sampled_from(["NaN", "Infinity", "-Infinity"])))
    elif kind == "huge integer":  # a year out of range, or a count past the digit limit
        key = draw(st.sampled_from(["year", "citations"]))
        digits = draw(st.integers(15 if key == "year" else 4301, 5000))
        lines[i] = json_with(CORPUS_RECORDS[i], (key,), "1" + "0" * digits)
    elif kind in NUMBER_KINDS:
        key = draw(st.sampled_from(["year", "citations"]))
        lines[i] = json_with(CORPUS_RECORDS[i], (key,),
                             mutate_json_value(draw, kind, CORPUS_RECORDS[i][key]))
    return kind, mutate_bytes(draw, kind, "".join(line + "\n" for line in lines).encode())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_corpus())
def test_ingest_on_a_mutated_corpus_accounts_for_every_line(tmp_path_factory, case):
    kind, data = case
    where = tmp_path_factory.mktemp("fuzz")
    (where / "map.csv").write_text("".join(",".join(row) + "\n" for row in MAP_ROWS))
    path, out = str(where / "raw.jsonl"), str(where / "corpus.jsonl")
    Path(path).write_bytes(data)
    code, err = run_quietly(["ingest", "--input", path, "--map", str(where / "map.csv"),
                             "--out", out])
    assert code == 0, (kind, err)
    accepted = Path(out).read_text().splitlines()
    rejected = Path(f"{out}.rejections.csv").read_text().splitlines()[1:]
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        assert len(accepted) + len(rejected) == sum(1 for line in fh if line.strip()), kind
    assert not re.search(r"NaN|Infinity", "".join(accepted)), kind
    if kind in ("none", "BOM", "CRLF"):
        assert not rejected and len(accepted) == len(CORPUS_RECORDS), (kind, rejected)
    if kind in ("huge integer", "nan/inf", *NUMBER_KINDS):  # no record read other than it was
        assert set(accepted) <= set(corpus_bytes().decode().splitlines()), (kind, accepted)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_corpus())
def test_build_on_a_mutated_corpus_exits_cleanly(tmp_path_factory, case):
    kind, data = case
    where = tmp_path_factory.mktemp("fuzz")
    path, out = str(where / "corpus.jsonl"), str(where / "net.csv")
    outputs = []
    for text in (corpus_bytes(), data):
        Path(path).write_bytes(text)
        code, err = run_quietly(["build", "--input", path, "--specialty", "Virology",
                                 "--year", "2013", "--out", out])
        outputs.append(Path(out).read_bytes() if code == 0 else None)
    assert code in (0, 1), (kind, err)
    if code == 1:  # a line of the file, or a slice left with no record
        message = err.split(": error: ", 1)[1]
        assert re.match(rf"{re.escape(path)}:\d+: ", message) or message == "empty slice\n", \
            (kind, message)
    else:
        for row in list(csv.reader(io.StringIO(Path(out).read_text())))[1:]:
            assert int(row[2]) >= 1 and math.isfinite(float(row[3])), (kind, row)
    if kind in ("none", "BOM", "CRLF"):
        assert outputs[1] == outputs[0] is not None, (kind, err)
    assert code == 1 or kind not in ("huge integer", "nan/inf", *NUMBER_KINDS), kind


GEN_FUZZ_CONFIG = {
    "n_countries": 12, "n_papers": 40, "years": [2008, 2013], "attachment_strength": 0.5,
    "countries_per_paper": {"1": 0.4, "2": 0.4, "3": 0.2},
    "citation_model": {"dispersion": 1.5, "means": [
        {"field": f, "year": y, "doctype": "article", "mean": 3.0}
        for f in ("Virology", "Seismology") for y in (2008, 2013)]}}
# keys and indices down to every value of GEN_FUZZ_CONFIG, and those of its numbers
CONFIG_PATHS = [("n_countries",), ("n_papers",), ("years",), ("years", 0), ("years", 1),
                ("attachment_strength",), ("countries_per_paper",),
                *(("countries_per_paper", k) for k in ("1", "2", "3")),
                ("citation_model",), ("citation_model", "dispersion"),
                ("citation_model", "means"), ("citation_model", "means", 0),
                *(("citation_model", "means", i, k) for i in range(4)
                  for k in ("field", "year", "doctype", "mean"))]
INT_PATHS = [p for p in CONFIG_PATHS if p[-1] in ("n_countries", "n_papers", "year")
             or p[0] == "years" and len(p) == 2]
NUMBER_PATHS = INT_PATHS + [p for p in CONFIG_PATHS if p[-1] in ("attachment_strength", "1",
                                                                 "2", "3", "dispersion", "mean")]
# what `syngen.generate` rejects while drawing, after the config passed validation
GEN_ERRORS = (r"(attachment_strength \S+ overflows the country weights at paper \d+"
              r"|n too large or p too small)")
# after the file: a key of the config, or where JSON decoding stopped
CONFIG_PLACES = (r"((n_countries|n_papers|years|attachment_strength|countries_per_paper"
                 r"|citation_model|citation (dispersion|means|model))\b"
                 r"|(missing|unknown) key '|.*(line \d+ column \d+|position \d+))")


@st.composite
def mutated_gen_config(draw):
    """(kind, bytes) of GEN_FUZZ_CONFIG under one mutation."""
    kind = draw(st.sampled_from(["none", "truncation", "BOM", "CRLF", "non-UTF-8 byte",
                                 "dropped key", "type swap", "huge integer", *NUMBER_KINDS]))
    text = json.dumps(GEN_FUZZ_CONFIG, indent=1)
    if kind == "dropped key":
        path = draw(st.sampled_from([p for p in CONFIG_PATHS if isinstance(p[-1], str)]))
        obj = json.loads(text)
        node = obj
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        text = json.dumps(obj, indent=1)
    elif kind == "type swap":
        text = json_with(GEN_FUZZ_CONFIG, draw(st.sampled_from(CONFIG_PATHS)),
                         json.dumps(draw(SWAPS)))
    elif kind == "huge integer":  # but in n_papers, which asks for that many records
        path = draw(st.sampled_from([p for p in NUMBER_PATHS if p != ("n_papers",)]))
        text = json_with(GEN_FUZZ_CONFIG, path, mutate_json_value(draw, kind, None))
    elif kind in NUMBER_KINDS:
        path = draw(st.sampled_from(INT_PATHS if kind == "float for int" else NUMBER_PATHS))
        value = GEN_FUZZ_CONFIG
        for key in path:
            value = value[key]
        text = json_with(GEN_FUZZ_CONFIG, path, mutate_json_value(draw, kind, value))
    return kind, mutate_bytes(draw, kind, text.encode())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_gen_config())
def test_gen_on_a_mutated_config_exits_cleanly(tmp_path_factory, case):
    kind, data = case
    where = tmp_path_factory.mktemp("fuzz")
    path, out = str(where / "cfg.json"), str(where / "raw.jsonl")
    outputs = []
    for text in (json.dumps(GEN_FUZZ_CONFIG).encode(), data):
        Path(path).write_bytes(text)
        code, err = run_quietly(["gen", "--seed", "1", "--config", path, "--out", out])
        outputs.append(Path(out).read_bytes() if code == 0 else None)
    assert code in (0, 1), (kind, err)
    if code == 1:
        message = err.split(": error: ", 1)[1]
        if not re.match(GEN_ERRORS, message):
            assert message.startswith(f"{path}: "), (kind, message)
            assert re.match(CONFIG_PLACES, message.removeprefix(f"{path}: ")), (kind, message)
    else:
        assert not re.search(r"NaN|Infinity", Path(out).read_text()), kind
    if kind in ("none", "BOM", "CRLF"):
        assert outputs[1] == outputs[0] is not None, (kind, err)
    assert code == 1 or kind not in NUMBER_KINDS, kind


@pytest.mark.parametrize("argv,text", [
    (["stats", "--input", "in.csv"], "source,target\nUS,DE\nDE,FR\nFR,GB\n"),
    (["trends", "--input", "in.csv"],
     "specialty,year,nodes,edges\nA,2008,3,2\nA,2013,4,5\nB,2008,2,1\nB,2013,5,6\n"),
    (["ingest", "--input", "raw.jsonl", "--map", "in.csv"],
     "Journal of Virology,Virology\nJournal of Seismology,Seismology\n"),
], ids=["edgelist", "stats", "headerless-map"])
def test_a_csv_input_with_a_bom_reads_as_without(workdir, argv, text):
    # as Excel's "CSV UTF-8" writes it
    (workdir / "raw.jsonl").write_text(MAP_RECORDS)
    outputs = []
    for bom in (b"", BOM):
        (workdir / "in.csv").write_bytes(bom + text.encode())
        assert run(*argv, "--out", "out.txt") == 0
        outputs.append((workdir / "out.txt").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("header", ["Source,Target", " source , TARGET ,Copub_Count"])
def test_an_edge_list_header_is_read_in_any_case(workdir, header):
    (workdir / "path.csv").write_text(f"{header}\nUS,DE\nDE,FR\n")
    assert run("stats", "--input", "path.csv", "--out", "stats.csv") == 0
    row = read_stats_csv(workdir / "stats.csv")[0]
    assert (row["nodes"], row["edges"], row["components"]) == (3, 2, 1)


def test_trends_names_the_line_of_a_repeated_specialty_and_year(workdir, capsys):
    (workdir / "sizes.csv").write_text("specialty,year,nodes,edges\n"
                                       "A,2008,3,2\nA,2013,4,5\nB,2008,2,1\nB,2013,5,6\n"
                                       "A,2008,3,2\n")
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 1
    assert ("error: sizes.csv: line 6: specialty A, year 2008 repeats line 2"
            in capsys.readouterr().err)
    assert not (workdir / "trends.csv").exists()


@pytest.mark.parametrize("row", [1, 5, 16])
def test_regress_fits_a_full_rank_design_with_one_large_column(workdir, row):
    # the rank check scales each column by its own norm, not by the largest one
    rows = observation_rows()
    rows[row][3] = str(10**15)
    (workdir / "obs.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    assert run("regress", "--input", "obs.csv", "--out", "report.txt",
               "--csv-out", "report.csv") == 0
    cells = [cell for line in (workdir / "report.csv").read_text().splitlines()[1:]
             for cell in line.split(",")[2:5] if cell]
    assert len(cells) >= 15 and all(math.isfinite(float(cell)) for cell in cells)


def test_trends_names_the_line_and_column_of_a_bad_cell(workdir, capsys):
    (workdir / "sizes.csv").write_text(
        "specialty,year,nodes,edges,diameter\n"
        "Soil Science,1990,40,66,5\n"
        "Soil Science,2000,1.5,247,5\n")
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 1
    assert ("error: sizes.csv: line 3: column nodes '1.5' is not an integer"
            in capsys.readouterr().err)
    assert not (workdir / "trends.csv").exists()


@pytest.mark.parametrize("final,measure", [("0,6", "nodes"), ("3,0", "edges")])
def test_trends_names_the_specialty_and_year_of_a_zero_final_size(workdir, capsys,
                                                                  final, measure):
    (workdir / "sizes.csv").write_text(
        f"specialty,year,nodes,edges\nA,2008,3,5\nA,2013,{final}\n")
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 1
    assert f"error: A 2013: no {measure} in the final year" in capsys.readouterr().err
    assert not (workdir / "trends.csv").exists()


def test_trends_names_the_specialty_of_a_zero_first_year_edge_count(workdir, capsys):
    (workdir / "sizes.csv").write_text("specialty,year,nodes,edges\n"
                                       "A,2008,3,0\nA,2013,4,6\nB,2008,3,5\nB,2013,4,6\n")
    assert run("trends", "--input", "sizes.csv", "--table2", "--out", "table2.txt") == 1
    assert "error: A 2008: growth undefined: zero edges" in capsys.readouterr().err
    assert not (workdir / "table2.txt").exists()


@pytest.mark.parametrize("column", ["year", "nodes", "edges"])
def test_trends_names_the_line_and_column_of_a_blank_size(workdir, capsys, column):
    row = {"specialty": "A", "year": "2013", "nodes": "4", "edges": "6", column: ""}
    (workdir / "sizes.csv").write_text(
        "specialty,year,nodes,edges\nA,2008,3,5\n" + ",".join(row.values()) + "\n")
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 1
    assert (f"error: sizes.csv: line 3: column {column}: blank cell"
            in capsys.readouterr().err)
    assert not (workdir / "trends.csv").exists()


def test_trends_names_the_line_of_a_missing_size_column(workdir, capsys):
    (workdir / "sizes.csv").write_text("specialty,year,nodes\nA,2008,3\n")
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 1
    assert "error: sizes.csv: line 2: column edges: missing" in capsys.readouterr().err


def test_trends_names_the_line_of_a_missing_specialty_column(workdir, capsys):
    (workdir / "sizes.csv").write_text("year,nodes,edges\n2008,3,2\n2013,4,5\n")
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 1
    assert "error: sizes.csv: line 2: column specialty: missing" in capsys.readouterr().err
    assert not (workdir / "trends.csv").exists()
    # a blank label is an unlabeled network, as `stats` writes one
    (workdir / "sizes.csv").write_text("specialty,year,nodes,edges\n,2008,3,2\n,2013,4,5\n")
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 0
    assert (workdir / "trends.csv").read_text().splitlines()[1].startswith(",2008,3,2,")


@pytest.mark.parametrize("row,message", [
    ("A,2_008,3,2,", "column year '2_008' is not an integer"),
    ("A,\u0662\u0660\u0660\u0668,3,2,",
     "column year '\u0662\u0660\u0660\u0668' is not an integer"),
    ("A,2008.0,3,2,", "column year '2008.0' is not an integer"),
    ("A,true,3,2,", "column year 'true' is not an integer"),
    # a count a float cannot hold, whose share overflowed (exit 2), and a negative one
    ("A,2008,1" + "0" * 400 + ",2,", "column nodes 1" + "0" * 400 + " is outside 0-2**53"),
    ("A,2008,3,-2,", "column edges -2 is outside 0-2**53"),
], ids=["underscore", "arabic-indic", "float", "bool", "huge", "negative"])
def test_trends_reads_numbers_by_the_input_rule(workdir, capsys, row, message):
    (workdir / "sizes.csv").write_text(
        f"specialty,year,nodes,edges,alpha\n{row}\nA,2013,4,5,1e+16\n")
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 1
    assert f"error: sizes.csv: line 2: {message}\n" in capsys.readouterr().err
    assert not (workdir / "trends.csv").exists()


def test_ingest_names_the_line_of_a_one_column_map_row(workdir, capsys):
    (workdir / "map.csv").write_text("journal,specialty\nJ1\n")
    (workdir / "raw.jsonl").write_text(
        '{"id":"p1","year":2013,"journal":"J1","countries":["US"],"citations":1}\n')
    assert run("ingest", "--input", "raw.jsonl", "--map", "map.csv",
               "--out", "corpus.jsonl") == 1
    assert ("error: map.csv: line 2: specialty map row needs two columns: ['J1']"
            in capsys.readouterr().err)
    assert not (workdir / "corpus.jsonl").exists()


def test_gen_config_names_a_missing_key(workdir, capsys):
    (workdir / "cfg.json").write_text(json.dumps({
        "n_countries": 20, "n_papers": 50, "years": [2013], "attachment_strength": 0.5,
        "countries_per_paper": {"1": 0.5, "2": 0.5}}))
    assert run("gen", "--seed", "1", "--config", "cfg.json", "--out", "raw.jsonl") == 1
    assert "error: cfg.json: missing key 'citation_model'" in capsys.readouterr().err
    assert not (workdir / "raw.jsonl").exists()


GEN_CONFIG = {
    "n_countries": 20, "n_papers": 50, "years": [2013], "attachment_strength": 0.5,
    "countries_per_paper": {"1": 0.5, "2": 0.5},
    "citation_model": {"means": [
        {"field": "Soil, Science", "year": 2013, "doctype": "article", "mean": 3.0}]}}


@pytest.mark.parametrize("text,message", [
    ('{"n_countries": 20,', "Expecting property name enclosed in double quotes: "
                            "line 1 column 20 (char 19)"),
    ("[1, 2]", "expected a JSON object, got list"),
    (json.dumps({**GEN_CONFIG, "citation_model": [1]}),
     "citation_model: list indices must be integers or slices, not str"),
    (json.dumps({**GEN_CONFIG, "years": 2013}), "years: 'int' object is not iterable"),
    (json.dumps({**GEN_CONFIG, "n_papers": "many"}),
     "n_papers: value 'many' is not an integer"),
    (json.dumps({**GEN_CONFIG, "countries_per_paper": [1, 2]}),
     "countries_per_paper: 'list' object has no attribute 'items'"),
    (json.dumps({**GEN_CONFIG, "n_papers": math.inf}),
     "n_papers: value inf is not an integer"),
    (json.dumps({**GEN_CONFIG, "n_countries": 1}), "n_countries must be >= 2"),
    (json.dumps({**GEN_CONFIG, "seed": 5}), "seed: not a config key; pass --seed"),
    (json.dumps({**GEN_CONFIG, "attachment_strength": math.nan}),
     "attachment_strength: value nan is not a number"),
    (json.dumps({**GEN_CONFIG, "countries_per_paper": {"1": math.nan, "2": 1.0}}),
     "countries_per_paper: ['1'] nan is not a number"),
    (json.dumps({**GEN_CONFIG, "n_paper": 10}), "unknown key 'n_paper'"),
    (json.dumps({**GEN_CONFIG, "citation_model": {**GEN_CONFIG["citation_model"],
                                                  "dispersoin": 9.0}}),
     "citation_model: unknown key 'dispersoin'"),
    (json.dumps({**GEN_CONFIG, "citation_model": {"means": [
        *GEN_CONFIG["citation_model"]["means"],
        {"field": "Virology", "year": 2013, "doctype": "article", "mean": 2.0, "sd": 1.0}]}}),
     "citation_model: means[1]: unknown key 'sd'"),
    (json.dumps({**GEN_CONFIG, "n_papers": 2.5}), "n_papers: value 2.5 is not an integer"),
    (json.dumps({**GEN_CONFIG, "n_papers": True}), "n_papers: value True is not an integer"),
    (json.dumps({**GEN_CONFIG, "years": [2008.9, 2013.2]}),
     "years: [0] 2008.9 is not an integer"),
    (json.dumps({**GEN_CONFIG, "attachment_strength": True}),
     "attachment_strength: value True is not a number"),
    (json.dumps({**GEN_CONFIG, "countries_per_paper": {"1_0": 0.5, "2": 0.5}}),
     "countries_per_paper: size '1_0' is not an integer"),
    (json.dumps({**GEN_CONFIG, "citation_model": {"means": [
        {"field": "Virology", "year": "2_013", "doctype": "article", "mean": 2.0}]}}),
     "citation_model: means[0]: year '2_013' is not an integer"),
    (json.dumps({**GEN_CONFIG, "citation_model": {**GEN_CONFIG["citation_model"],
                                                  "dispersion": False}}),
     "citation_model: dispersion False is not a number"),
    (json.dumps(GEN_CONFIG).replace('"n_countries": 20', '"n_countries": 2' + "0" * 5000),
     "n_countries: value inf is not an integer"),
    (json.dumps({**GEN_CONFIG, "citation_model": {"means": [
        {"field": 1.5, "year": 2013, "doctype": "article", "mean": 2.0}]}}),
     "citation_model: means[0]: field and doctype must be text"),
], ids=["bad-json", "not-an-object", "model-type", "years-type", "count-type",
        "sizes-type", "count-inf", "invalid", "seed-key", "strength-nan", "probability-nan",
        "unknown-key", "unknown-model-key", "unknown-mean-key", "count-float", "count-bool",
        "years-float", "strength-bool", "size-underscore", "mean-year-underscore",
        "dispersion-bool", "count-past-digit-limit", "field-type"])
def test_gen_config_fault_exits_one_naming_the_file(workdir, capsys, text, message):
    (workdir / "cfg.json").write_text(text)
    assert run("gen", "--seed", "1", "--config", "cfg.json", "--out", "raw.jsonl") == 1
    assert f"collabnet gen: error: cfg.json: {message}\n" in capsys.readouterr().err
    assert not (workdir / "raw.jsonl").exists()


@pytest.mark.parametrize("flag", [["--n-papers", "7"], ["--n-countries", "20"],
                                  ["--years", "2013"], ["--attachment-strength", "0.5"]])
def test_gen_rejects_a_generator_flag_beside_a_config(workdir, capsys, flag):
    (workdir / "cfg.json").write_text(json.dumps(GEN_CONFIG))
    assert run("gen", "--seed", "1", "--config", "cfg.json", *flag, "--out", "raw.jsonl") == 1
    assert capsys.readouterr().err == (f"collabnet gen: error: cfg.json: {flag[0]} cannot be "
                                       "combined with --config\n")
    assert not (workdir / "raw.jsonl").exists()


@pytest.mark.parametrize("argv,config_hash", [
    (["--seed", "1", "--n-papers", "50", "--out", "a.jsonl"],
     "058497549fa477927b98683c0437f3f5250f17276ad47de5ffc56efd1887eda9"),
    (["--seed", "42", "--out", "b.jsonl", "--n-papers", "600", "--truth-out", "truth.csv",
      "--map-out", "map.csv", "--years", "2008,2013", "--n-countries", "60",
      "--attachment-strength", "0.8"],
     "b986df003ff866b2e67299c0a784326c44250c7fab3b8361896c1bb338bcac6c"),
    (["--seed", "1", "--config", "cfg.json", "--out", "c.jsonl", "--map-out", "map2.csv"],
     "4b28486202ef91264fbfde556ab4a4f8a46799d45d38777a2438e20ed8e55cfa"),
], ids=["defaults", "every-flag", "config"])
def test_gen_manifest_config_hash_is_unchanged(workdir, argv, config_hash):
    # the hashes of these command lines before the flags' defaults moved into `cmd_gen`
    (workdir / "cfg.json").write_text(json.dumps(GEN_CONFIG))
    assert run("gen", *argv) == 0
    out = argv[argv.index("--out") + 1]
    manifest = json.loads((workdir / f"{out}.manifest.json").read_text())
    assert manifest["config_hash"] == config_hash


def test_gen_overflowing_attachment_strength_exits_one_naming_the_paper(workdir, capsys):
    # the suite turns a RuntimeWarning (overflow in power) into an error
    assert run("gen", "--seed", "1", "--attachment-strength", "300", "--out", "raw.jsonl") == 1
    assert capsys.readouterr().err == ("collabnet gen: error: attachment_strength 300 "
                                       "overflows the country weights at paper 11\n")
    assert not (workdir / "raw.jsonl").exists()
    # a strength whose weights stay finite for the whole run still generates
    assert run("gen", "--seed", "1", "--attachment-strength", "120", "--n-papers", "200",
               "--out", "raw.jsonl") == 0


def test_gen_map_quotes_a_field_label_with_a_comma(workdir):
    (workdir / "cfg.json").write_text(json.dumps(GEN_CONFIG))
    assert run("gen", "--seed", "1", "--config", "cfg.json", "--out", "raw.jsonl",
               "--map-out", "map.csv") == 0
    assert run("ingest", "--input", "raw.jsonl", "--map", "map.csv",
               "--out", "corpus.jsonl") == 0
    lines = (workdir / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 50
    assert {json.loads(line)["specialty"] for line in lines} == {"Soil, Science"}


@pytest.mark.parametrize("argv,data,message", [
    (["stats", "--input", "bad.csv"], b"US,DE\nDE,F\xffR\n",
     "line 2: not valid UTF-8 at character 5"),
    (["ingest", "--input", "raw.jsonl", "--map", "bad.csv"],
     b"journal,specialty\nJournal of Virology,Virology\nJ\xff,Virology\n",
     "line 3: not valid UTF-8 at character 2"),
    (["trends", "--input", "bad.csv"],
     b"specialty,year,nodes,edges\nA,2008,3,5\nA\xff,2013,4,6\n",
     "line 3: not valid UTF-8 at character 2"),
    (["regress", "--input", "bad.csv"],
     (OBSERVATIONS + GOOD_ROW).encode() + b"DE-FR,2013,2,3,1.5\xff,0.47\n",
     "line 3: not valid UTF-8 at character 19"),
], ids=["edgelist", "map", "stats", "observations"])
def test_csv_input_byte_that_is_not_utf8_exits_one_with_its_line(workdir, capsys,
                                                                 argv, data, message):
    (workdir / "bad.csv").write_bytes(data)
    (workdir / "raw.jsonl").write_text(
        '{"id":"p1","year":2013,"journal":"J1","countries":["US"],"citations":1}\n')
    assert run(*argv, "--out", "out.txt") == 1
    assert f"error: bad.csv: {message}\n" in capsys.readouterr().err
    assert not (workdir / "out.txt").exists()


def test_gen_and_regress_write_dash_to_stdout(workdir, capsys):
    gen_corpus(workdir)
    assert run("regress", "--input", "corpus.jsonl", "--out", "report.txt") == 0
    capsys.readouterr()
    assert run("gen", "--seed", "42", "--n-papers", "600", "--out", "-") == 0
    assert capsys.readouterr().out == (workdir / "raw.jsonl").read_text()
    assert run("regress", "--input", "corpus.jsonl", "--out", "-") == 0
    assert capsys.readouterr().out == (workdir / "report.txt").read_text()
    assert not list(workdir.glob("-*"))


def test_every_output_has_a_manifest(workdir):
    gen_corpus(workdir)
    for out in ("raw.jsonl", "corpus.jsonl"):
        manifest = json.loads((workdir / f"{out}.manifest.json").read_text())
        assert manifest["version"]
        assert manifest["config_hash"]
        assert str(workdir / out) in {str(Path(p)) for p in manifest["outputs"]} \
            or out in {Path(p).name for p in manifest["outputs"]}


def test_rerun_reproduces_identical_bytes(workdir):
    gen_corpus(workdir)
    assert run("build", "--input", "corpus.jsonl", "--specialty", "Seismology",
               "--year", "2008", "--out", "net.csv") == 0
    first = (workdir / "net.csv").read_bytes()
    first_manifest = (workdir / "net.csv.manifest.json").read_bytes()
    (workdir / "net.csv").unlink()
    (workdir / "net.csv.manifest.json").unlink()
    assert run("build", "--input", "corpus.jsonl", "--specialty", "Seismology",
               "--year", "2008", "--out", "net.csv") == 0
    assert (workdir / "net.csv").read_bytes() == first
    assert (workdir / "net.csv.manifest.json").read_bytes() == first_manifest


def test_gen_is_deterministic_per_seed(workdir):
    assert run("gen", "--seed", "42", "--out", "a.jsonl", "--n-papers", "300") == 0
    assert run("gen", "--seed", "42", "--out", "b.jsonl", "--n-papers", "300") == 0
    assert run("gen", "--seed", "43", "--out", "c.jsonl", "--n-papers", "300") == 0
    assert (workdir / "a.jsonl").read_bytes() == (workdir / "b.jsonl").read_bytes()
    assert (workdir / "a.jsonl").read_bytes() != (workdir / "c.jsonl").read_bytes()


def test_thread_count_does_not_change_stats_output(workdir):
    gen_corpus(workdir)
    assert run("build", "--input", "corpus.jsonl", "--specialty", "Virology",
               "--year", "2013", "--out", "net.csv") == 0
    assert run("stats", "--input", "net.csv", "--specialty", "Virology",
               "--year", "2013", "--threads", "1", "--out", "t1.csv") == 0
    assert run("stats", "--input", "net.csv", "--specialty", "Virology",
               "--year", "2013", "--threads", "8", "--out", "t8.csv") == 0
    assert (workdir / "t1.csv").read_text() == (workdir / "t8.csv").read_text()


def test_no_subcommand_mutates_inputs(workdir):
    corpus_path = gen_corpus(workdir)
    before = corpus_path.read_bytes()
    run("build", "--input", "corpus.jsonl", "--specialty", "Virology",
        "--year", "2013", "--out", "net.csv")
    net_before = (workdir / "net.csv").read_bytes()
    run("stats", "--input", "net.csv", "--specialty", "Virology",
        "--year", "2013", "--out", "s.csv")
    assert corpus_path.read_bytes() == before
    assert (workdir / "net.csv").read_bytes() == net_before


def test_trends_change_table_from_stats_file(workdir):
    stats_csv = (
        "specialty,year,nodes,edges,diameter,avg_degree,density,"
        "betweenness_centralization,transitivity,avg_local_clustering,components,alpha\n"
        "Soil Science,1990,40,66,5,,,,,,,\n"
        "Soil Science,2000,80,247,5,,,,,,,\n"
        "Soil Science,2008,92,373,4,,,,,,,\n"
        "Soil Science,2013,100,429,4,,,,,,,\n")
    (workdir / "sizes.csv").write_text(stats_csv)
    assert run("trends", "--input", "sizes.csv", "--out", "table.txt", "--table2") == 0
    table = (workdir / "table.txt").read_text()
    assert "550%" in table
    assert "60" in table
    assert "decrease" in table
    assert run("trends", "--input", "sizes.csv", "--out", "trends.csv") == 0
    assert (workdir / "trends.csv").read_text().startswith("specialty,year,nodes")


def test_regress_on_corpus_writes_report_and_observations(workdir):
    gen_corpus(workdir, seed=11, n_papers=900)
    assert run("regress", "--input", "corpus.jsonl", "--out", "report.txt",
               "--csv-out", "report.csv", "--observations-out", "obs.csv") == 0
    report = (workdir / "report.txt").read_text()
    assert "All Fields" in report
    assert "Country Count" in report
    assert "AIC" in report
    obs_header = (workdir / "obs.csv").read_text().splitlines()[0]
    assert obs_header == "combo_id,year,country_count,publication_count,mean_fwci,log_fwci"
    assert run("regress", "--input", "obs.csv", "--out", "single.txt") == 0
    assert "Publication Count" in (workdir / "single.txt").read_text()


def test_regress_fits_each_specialty_on_its_own_records(workdir):
    from collabnet import impact, lmm
    from collabnet.corpus import Corpus

    gen_corpus(workdir, seed=11, n_papers=4000)
    corp = Corpus.load("corpus.jsonl")
    scores, _ = impact.attach_fwci(corp, impact.compute_baselines(corp))
    fits = {}
    for label in sorted({r.specialty for r in corp}):
        try:
            fits[label] = lmm.fit(impact.build_observations(
                [r for r in corp if r.specialty == label], scores))
        except ValueError:  # the CLI skips it too
            pass
    fits["All Fields"] = lmm.fit(impact.build_observations(corp, scores))
    assert len(fits) > 4
    assert run("regress", "--input", "corpus.jsonl", "--out", "all.txt",
               "--csv-out", "all.csv") == 0
    assert (workdir / "all.csv").read_text() == lmm.report_csv(fits)
    for label in list(fits)[:2]:
        assert run("regress", "--input", "corpus.jsonl", "--specialty", label,
                   "--out", "one.txt", "--csv-out", "one.csv") == 0
        assert (workdir / "one.csv").read_text() == lmm.report_csv({label: fits[label]})


def test_regress_skips_slices_with_no_residual_variance(workdir, capsys):
    gen_corpus(workdir)
    with open("corpus.jsonl") as src, open("flat.jsonl", "w") as dst:
        for line in src:  # every paper 5 citations: every FWCI is 1
            dst.write(json.dumps({**json.loads(line), "citations": 5}) + "\n")
    capsys.readouterr()
    assert run("regress", "--input", "flat.jsonl", "--out", "report.txt") == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == "collabnet regress: error: no slice could be fitted"
    assert "skipping All Fields: no residual variance: the fixed effects fit the response " \
           "exactly" in lines
    assert not (workdir / "report.txt").exists()
    with open("flat.csv", "w") as fh:
        fh.write(OBSERVATIONS + "".join(
            f"{c},{y},{c.count('-') + 1},{k},1.0,{math.log(1.1)!r}\n"
            for c, y, k in [("DE-US", 2008, 1), ("DE-FR-US", 2013, 3), ("FR-GB", 2008, 2),
                            ("FR-GB", 2010, 1), ("CN-JP-KR", 2013, 4), ("AU-NZ", 2009, 2)]))
    assert run("regress", "--input", "flat.csv", "--out", "report.txt") == 1
    assert capsys.readouterr().err == ("collabnet regress: error: no residual variance: "
                                       "the fixed effects fit the response exactly\n")


@pytest.mark.parametrize("seed", [1, 1612])
def test_regress_fits_every_slice_of_the_benchmark_corpora(workdir, capsys, seed):
    gen_corpus(workdir, seed=seed, n_papers=10000)
    capsys.readouterr()
    assert run("regress", "--input", "corpus.jsonl", "--out", "report.txt") == 0
    assert capsys.readouterr().err == ""


def test_export_round_trip_formats(workdir):
    gen_corpus(workdir)
    assert run("build", "--input", "corpus.jsonl", "--specialty", "Virology",
               "--year", "2013", "--format", "graphml", "--out", "net.graphml") == 0
    assert run("export", "--input", "net.graphml", "--format", "csv",
               "--out", "net.csv") == 0
    assert run("export", "--input", "net.graphml", "--format", "dot",
               "--out", "net.dot") == 0
    csv_text = (workdir / "net.csv").read_text()
    assert csv_text.startswith("source,target,copub_count,cosine\n")
    assert (workdir / "net.dot").read_text().startswith("graph")
    assert run("stats", "--input", "net.graphml", "--out", "sg.csv") == 0
    row = read_stats_csv(workdir / "sg.csv")[0]
    assert row["specialty"] == "Virology"
    assert row["year"] == 2013


def test_stats_grid_layout(workdir):
    gen_corpus(workdir)
    for year in ("2008", "2013"):
        assert run("build", "--input", "corpus.jsonl", "--specialty", "Virology",
                   "--year", year, "--format", "graphml",
                   "--out", f"v{year}.graphml") == 0
    assert run("stats", "--input", "v2008.graphml", "v2013.graphml",
               "--all-years", "--out", "grid.txt") == 0
    grid = (workdir / "grid.txt").read_text()
    assert "Virology" in grid
    assert "Avg. Degree" in grid
    assert "2008" in grid and "2013" in grid


def test_stats_grid_rounds_the_computed_value_once(workdir):
    # betweenness centralization 0.08496: 0.0850 at 4 decimals, 0.08 at 2
    net = network_of_size(12, 40, specialty="Virology", year=2013)
    (workdir / "net.csv").write_text(export_edgelist(net))
    assert run("stats", "--input", "net.csv", "--all-years", "--fixed-decimals",
               "--out", "grid.txt") == 0
    row = next(line for line in (workdir / "grid.txt").read_text().splitlines()
               if "Betweenness" in line)
    assert row.split() == ["Betweenness", "0.08"]


def test_build_no_header_flag(workdir):
    gen_corpus(workdir)
    assert run("build", "--input", "corpus.jsonl", "--specialty", "Virology",
               "--year", "2013", "--no-header", "--out", "bare.csv") == 0
    first = (workdir / "bare.csv").read_text().splitlines()[0]
    assert not first.startswith("source,target")


# Run in a fresh interpreter: the collabnet modules and the numpy/scipy
# packages loaded by importing the CLI and then running one command, and
# whether the XML parser got loaded.
IMPORT_PROBE = """
import json, sys

import collabnet.cli
argv = json.loads(sys.argv[1])
code = collabnet.cli.main(argv) if argv else None
loaded = [m for m in sys.modules if m.partition(".")[0] in ("collabnet", "numpy", "scipy")]
print(json.dumps([code, sorted({m.partition(".")[0] for m in loaded} - {"collabnet"}),
                  sorted(m for m in loaded if m.startswith("collabnet")),
                  "xml.etree.ElementTree" in sys.modules]))
"""

CLI_MODULES = ["collabnet", "collabnet.cli", "collabnet.corpus", "collabnet.countries",
               "collabnet.netbuild"]


# (command line, numpy/scipy packages, collabnet modules beyond CLI_MODULES)
COMMAND_MODULES = [
    ([], [], []),
    (["ingest", "--input", "raw.jsonl", "--map", "map.csv", "--out", "fresh.jsonl"], [], []),
    (["build", "--input", "corpus.jsonl", "--specialty", "Virology", "--year", "2013",
      "--out", "fresh.csv"], [], []),
    (["export", "--input", "Virology-2013.csv", "--out", "fresh.graphml"], [], []),
    (["trends", "--input", "stats.csv", "--out", "trends.csv"], [], ["longit"]),
    # metrics re-exports longit's stats CSV reader
    (["stats", "--input", "Virology-2013.csv", "--powerlaw", "--out", "fresh-stats.csv"],
     ["numpy"], ["longit", "metrics"]),
    (["regress", "--input", "corpus.jsonl", "--out", "report.txt"], ["numpy"], ["impact", "lmm"]),
    (["gen", "--seed", "1", "--n-papers", "20", "--out", "gen.jsonl"], ["numpy"], ["syngen"]),
]


def test_light_commands_load_no_numpy_or_scipy(workdir):
    gen_corpus(workdir, n_papers=300)
    for year in ("2008", "2013"):
        assert run("build", "--input", "corpus.jsonl", "--specialty", "Virology",
                   "--year", year, "--out", f"Virology-{year}.csv") == 0
    assert run("stats", "--input", "Virology-2008.csv", "Virology-2013.csv",
               "--out", "stats.csv") == 0
    env = dict(os.environ, PYTHONPATH=str(Path(collabnet.__file__).parents[1]))
    for argv, heavy, extra in COMMAND_MODULES:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
                              cwd=workdir, env=env, capture_output=True, text=True, check=True)
        code, loaded_heavy, modules, xml_parser = json.loads(proc.stdout)
        assert code == (0 if argv else None), argv
        assert loaded_heavy == heavy, argv  # never scipy
        assert modules == sorted(CLI_MODULES + [f"collabnet.{m}" for m in extra]), argv
        assert not xml_parser, argv  # only reading GraphML needs it, and no command here does
