"""Exact bytes of every written form, on one small hand-built network.

Records p1 {DE, FR, US}, p2 {FR, GB} and p3 {DE, US} give a triangle
DE-FR-US with the pendant GB on FR. DE-US carries two co-publications and
every country but GB is on two international papers, so the cosines are
1.0, 0.5, 0.5 and 1/sqrt(2). The graph has density 4/6, transitivity
3 * 1 / 5 connected triples = 0.6, local clustering (1 + 1 + 1/3 + 0) / 4,
and FR alone brokers the two GB paths, for a betweenness centralization of
2/3.
"""

import dataclasses

import pytest

from collabnet.cli import main
from collabnet.corpus import Corpus, PublicationRecord
from collabnet.metrics import compute_stats, stats_csv_text, stats_json_text
from collabnet.netbuild import build_network, cosine_weights, export


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
    assert (tmp_path / "grid.txt").read_text() == (
        "Field / Measure      2008      2013\n"
        "Virology\n"
        "  Avg. Degree      1.33      2.00\n"
        "  Density         0.67      0.67\n"
        "  Betweenness      1.00      0.67\n"
        "  Clustering      0.00      0.60\n"
        "  Avg. Cluster      0.00      0.58\n")


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
