import json
from pathlib import Path

import pytest

from collabnet.cli import main
from collabnet.metrics import read_stats_csv


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
])
def test_non_simple_edgelist_exits_one(workdir, capsys, rows, message):
    (workdir / "bad.csv").write_text(rows)
    assert run("stats", "--input", "bad.csv", "--out", "stats.csv") == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "stats.csv").exists()


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


def test_build_no_header_flag(workdir):
    gen_corpus(workdir)
    assert run("build", "--input", "corpus.jsonl", "--specialty", "Virology",
               "--year", "2013", "--no-header", "--out", "bare.csv") == 0
    first = (workdir / "bare.csv").read_text().splitlines()[0]
    assert not first.startswith("source,target")
