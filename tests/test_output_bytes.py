"""Exact bytes of every written form, on one small hand-built network.

Records p1 {DE, FR, US}, p2 {FR, GB} and p3 {DE, US} give a triangle
DE-FR-US with the pendant GB on FR. DE-US carries two co-publications and
every country but GB is on two international papers, so the cosines are
1.0, 0.5, 0.5 and 1/sqrt(2). The graph has density 4/6, transitivity
3 * 1 / 5 connected triples = 0.6, local clustering (1 + 1 + 1/3 + 0) / 4,
and FR alone brokers the two GB paths, for a betweenness centralization of
2/3.

Two syngen snapshots pin the statistics battery at full precision as well.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from collabnet import __version__, syngen
from collabnet.cli import main
from collabnet.corpus import Corpus, PublicationRecord, filter_records, ingest, write_rejections
from collabnet.impact import make_observation, write_observations
from collabnet.lmm import LmmFit, report_csv
from collabnet.longit import TrendPoint, TrendSeries, trends_csv
from collabnet.metrics import compute_stats, stats_csv_text, stats_json_text
from collabnet.netbuild import build_network, cosine_weights, export
from collabnet.syngen import TruthRow, truth_csv


def rec(rid, countries, year=2013):
    return PublicationRecord(id=rid, year=year, journal="Journal of Virology",
                             specialty="Virology", field="Virology", doctype="article",
                             countries=tuple(sorted(countries)), citations=3)


RECORDS = [rec("p1", ["DE", "FR", "US"]), rec("p2", ["FR", "GB"]), rec("p3", ["DE", "US"])]


@pytest.fixture()
def net():
    return cosine_weights(build_network(RECORDS))


@pytest.fixture()
def stats(net):
    # the second row carries a fitted exponent, which this graph is too small for
    first = compute_stats(net, fit_powerlaw=True)
    return [first, dataclasses.replace(first, year=2014, powerlaw_alpha=7 / 3)]


HEADER = ("specialty,year,nodes,edges,diameter,avg_degree,density,"
          "betweenness_centralization,transitivity,avg_local_clustering,components,alpha\n")


# compute_stats(...).to_json_obj() of the Virology 2013 snapshot, power law
# fitted, on two syngen corpora: (seed, countries, papers) -> every field at
# full precision.
SYNGEN_SNAPSHOTS = {
    (1, 200, 7500): {
        "specialty": "Virology", "year": 2013, "nodes": 196, "edges": 993, "diameter": 5,
        "avg_degree": 10.13265306122449, "density": 0.05196232339089482,
        "betweenness_centralization": 0.053966934238398205,
        "transitivity": 0.16688712522045857, "avg_local_clustering": 0.23741510899865506,
        "components": 2, "alpha": 1.3870278688248439},
    (1612, 60, 10000): {
        "specialty": "Virology", "year": 2013, "nodes": 60, "edges": 847, "diameter": 2,
        "avg_degree": 28.233333333333334, "density": 0.47853107344632767,
        "betweenness_centralization": 0.01669210088197236,
        "transitivity": 0.5395578589359462, "avg_local_clustering": 0.5504724759414111,
        "components": 1, "alpha": 1.2607714751234498},
}


@pytest.mark.parametrize("seed,n_countries,n_papers", sorted(SYNGEN_SNAPSHOTS))
def test_syngen_snapshot_stats_at_full_precision(seed, n_countries, n_papers):
    cfg = syngen.GenConfig.default(seed=seed, n_countries=n_countries, n_papers=n_papers)
    records, _ = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(), syngen.specialty_map_for(cfg))
    net = cosine_weights(build_network(filter_records(corp, "Virology", 2013)))
    assert (compute_stats(net, fit_powerlaw=True).to_json_obj()
            == SYNGEN_SNAPSHOTS[seed, n_countries, n_papers])


def test_stats_csv_bytes(stats):
    assert stats_csv_text(stats) == HEADER + (
        "Virology,2013,4,4,2,2,0.666666666667,0.666666666667,0.6,0.583333333333,1,\n"
        "Virology,2014,4,4,2,2,0.666666666667,0.666666666667,0.6,0.583333333333,1,"
        "2.33333333333\n")


def test_stats_csv_fixed_decimals_bytes(stats):
    assert stats_csv_text(stats, fixed_decimals=True) == HEADER + (
        "Virology,2013,4,4,2,2.0000,0.6667,0.6667,0.6000,0.5833,1,\n"
        "Virology,2014,4,4,2,2.0000,0.6667,0.6667,0.6000,0.5833,1,2.3333\n")


def test_stats_json_bytes(stats):
    assert stats_json_text(stats[:1]) == (
        '{"alpha": null, "avg_degree": 2.0, "avg_local_clustering": 0.5833333333333333, '
        '"betweenness_centralization": 0.6666666666666666, "components": 1, '
        '"density": 0.6666666666666666, "diameter": 2, "edges": 4, "nodes": 4, '
        '"specialty": "Virology", "transitivity": 0.6, "year": 2013}\n')


def test_all_years_grid_bytes(tmp_path, monkeypatch, net):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "Virology-2013.csv").write_text(export(net, "csv"))
    # 2008: the path DE-FR-US alone
    (tmp_path / "Virology-2008.csv").write_text("DE,FR\nFR,US\n")
    assert main(["stats", "--input", "Virology-2008.csv", "Virology-2013.csv",
                 "--all-years", "--out", "grid.txt"]) == 0
    grid = (tmp_path / "grid.txt").read_text()
    assert grid == (
        "Field / Measure      2008      2013\n"
        "Virology\n"
        "  Avg. Degree        1.33      2.00\n"
        "  Density            0.67      0.67\n"
        "  Betweenness        1.00      0.67\n"
        "  Clustering         0.00      0.60\n"
        "  Avg. Cluster       0.00      0.58\n")
    # every year column ends at the same offset on every row
    rows = [line for line in grid.splitlines() if line != "Virology"]
    for year in ("2008", "2013"):
        end = rows[0].index(year) + len(year)
        assert {len(row[:end].rstrip()) for row in rows} == {end}


def test_graphml_bytes(net):
    assert export(net, "graphml") == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="specialty" for="graph" attr.name="specialty" attr.type="string"/>\n'
        '  <key id="year" for="graph" attr.name="year" attr.type="int"/>\n'
        '  <key id="copub_count" for="edge" attr.name="copub_count" attr.type="int"/>\n'
        '  <key id="cosine" for="edge" attr.name="cosine" attr.type="double"/>\n'
        '  <graph id="collab" edgedefault="undirected">\n'
        '    <data key="specialty">Virology</data>\n'
        '    <data key="year">2013</data>\n'
        '    <node id="DE"/>\n'
        '    <node id="FR"/>\n'
        '    <node id="GB"/>\n'
        '    <node id="US"/>\n'
        '    <edge source="DE" target="FR">\n'
        '      <data key="copub_count">1</data>\n'
        '      <data key="cosine">0.5</data>\n'
        '    </edge>\n'
        '    <edge source="DE" target="US">\n'
        '      <data key="copub_count">2</data>\n'
        '      <data key="cosine">1.0</data>\n'
        '    </edge>\n'
        '    <edge source="FR" target="GB">\n'
        '      <data key="copub_count">1</data>\n'
        '      <data key="cosine">0.7071067811865475</data>\n'
        '    </edge>\n'
        '    <edge source="FR" target="US">\n'
        '      <data key="copub_count">1</data>\n'
        '      <data key="cosine">0.5</data>\n'
        '    </edge>\n'
        '  </graph>\n'
        '</graphml>\n')


def test_dot_bytes(net):
    assert export(net, "dot") == (
        'graph "Virology" {\n'
        '  "DE";\n'
        '  "FR";\n'
        '  "GB";\n'
        '  "US";\n'
        '  "DE" -- "FR" [copub_count=1, cosine=0.5];\n'
        '  "DE" -- "US" [copub_count=2, cosine=1.0];\n'
        '  "FR" -- "GB" [copub_count=1, cosine=0.7071067811865475];\n'
        '  "FR" -- "US" [copub_count=1, cosine=0.5];\n'
        '}\n')


def test_edgelist_csv_bytes(net):
    rows = "DE,FR,1,0.5\nDE,US,2,1.0\nFR,GB,1,0.7071067811865475\nFR,US,1,0.5\n"
    assert export(net, "csv") == "source,target,copub_count,cosine\n" + rows
    assert export(net, "csv", header=False) == rows


def test_corpus_save_bytes(tmp_path):
    Corpus(records={"p1": RECORDS[0]}).save(tmp_path / "c.jsonl")
    assert (tmp_path / "c.jsonl").read_bytes() == (
        b'{"citations":3,"countries":["DE","FR","US"],"doctype":"article",'
        b'"field":"Virology","id":"p1","journal":"Journal of Virology",'
        b'"specialty":"Virology","year":2013}\n')


# A label with a comma and a cell with a quote check that every CSV output quotes.
COMMA = "Soil, Science"


def test_trends_csv_bytes():
    series = [TrendSeries(COMMA, (TrendPoint(2008, 2, 1), TrendPoint(2013, 4, 4, 3))),
              TrendSeries("Virology", (TrendPoint(2008, 3, 2, 2), TrendPoint(2013, 4, 5, 2)))]
    assert trends_csv(series) == (
        "specialty,year,nodes,edges,diameter,node_share,edge_share,pooled_node_share\n"
        '"Soil, Science",2008,2,1,,0.5,0.25,0.625\n'
        '"Soil, Science",2013,4,4,3,1.0,1.0,1.0\n'
        "Virology,2008,3,2,2,0.75,0.4,0.625\n"
        "Virology,2013,4,5,2,1.0,1.0,1.0\n")


def test_report_csv_bytes():
    fit = LmmFit(names=("intercept", "year"), beta=np.array([0.5, -0.25]),
                 se=np.array([0.1, 0.5]), sigma_u2=0.25, sigma2=1.5, loglik=-3.0, aic=14.0,
                 n=10, n_groups=4, psi=1 / 6)
    # p = 2 * Phi(-|estimate| / se): 2 * Phi(-5) and 2 * Phi(-0.5); mpmath gives
    # 5.73303143758387823e-07 for the first, 2.4e-15 relative from the bits here
    assert report_csv({COMMA: fit}) == (
        "model,term,estimate,se,p,stars\n"
        '"Soil, Science",Intercept,0.5,0.1,5.733031437583892e-07,***\n'
        '"Soil, Science",Year,-0.25,0.5,0.6170750774519738,\n'
        '"Soil, Science",Random Effect,0.25,,,\n'
        '"Soil, Science",Residual,1.5,,,\n'
        '"Soil, Science",AIC,14.0,,,\n'
        '"Soil, Science",N,10,,,\n')


def test_observations_csv_bytes(tmp_path):
    obs = [make_observation(("DE", "US"), 2013, [1.0, 2.0]),
           make_observation(("DE", "FR", "US"), 2013, [0.0])]
    write_observations(obs, tmp_path / "obs.csv")
    # log_fwci = ln(mean_fwci + 0.1): ln 1.6 and ln 0.1
    assert (tmp_path / "obs.csv").read_bytes() == (
        b"combo_id,year,country_count,publication_count,mean_fwci,log_fwci\n"
        b"DE-US,2013,2,2,1.5,0.47000362924573563\n"
        b"DE-FR-US,2013,3,1,0.0,-2.3025850929940455\n")


def test_rejections_csv_bytes(tmp_path):
    write_rejections([("line:3", "malformed record: Expecting value"),
                      ('p"2', "unknown country code: XX, YY")], tmp_path / "rej.csv")
    assert (tmp_path / "rej.csv").read_bytes() == (
        b"id,reason\n"
        b"line:3,malformed record: Expecting value\n"
        b'"p""2","unknown country code: XX, YY"\n')


def test_truth_csv_bytes():
    assert truth_csv([TruthRow("p1", 2013, COMMA, "article", ("US", "DE"), 4)]) == (
        "id,year,field,doctype,countries,citations\n"
        'p1,2013,"Soil, Science",article,US-DE,4\n')


def test_gen_map_csv_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--seed", "3", "--n-papers", "5", "--out", "raw.jsonl",
                 "--map-out", "map.csv"]) == 0
    assert (tmp_path / "map.csv").read_bytes() == (
        b"journal,specialty\n"
        b"Journal of Astrophysics,Astrophysics\n"
        b"Journal of Mathematical Logic,Mathematical Logic\n"
        b"Journal of Polymer Science,Polymer Science\n"
        b"Journal of Seismology,Seismology\n"
        b"Journal of Soil Science,Soil Science\n"
        b"Journal of Virology,Virology\n")


def test_manifest_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stats.csv").write_text("specialty,year,nodes,edges\nA,2008,2,1\nA,2013,4,4\n")
    assert main(["trends", "--input", "stats.csv", "--out", "trends.csv"]) == 0

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    # config_hash is the SHA-256 of the command's options as sorted-key JSON
    options = {"command": "trends", "input": "stats.csv", "out": "trends.csv", "table2": False}
    config_hash = hashlib.sha256(json.dumps(options, sort_keys=True).encode()).hexdigest()
    assert config_hash == "70e606677a4a613b348d6929596b6f1dd679db102c2eb9ffd497f8c15e3a97ea"
    assert (tmp_path / "trends.csv.manifest.json").read_text() == (
        "{\n"
        '  "command": "trends",\n'
        f'  "config_hash": "{config_hash}",\n'
        '  "inputs": {\n'
        f'    "stats.csv": "{digest("stats.csv")}"\n'
        "  },\n"
        '  "outputs": {\n'
        f'    "trends.csv": "{digest("trends.csv")}"\n'
        "  },\n"
        f'  "version": "{__version__}"\n'
        "}\n")
