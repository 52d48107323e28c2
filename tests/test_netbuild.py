from itertools import combinations
from xml.etree import ElementTree

import numpy as np
import pytest

from collabnet import syngen
from collabnet.corpus import PublicationRecord, ingest
from collabnet.netbuild import (
    CollabNetwork,
    Edge,
    build_network,
    cosine_weights,
    export,
    export_edgelist,
    export_graphml,
    network_of_size,
    read_edgelist,
    read_graphml,
)


def rec(rid: str, countries, year: int = 2013, specialty: str = "Virology") -> PublicationRecord:
    return PublicationRecord(
        id=rid, year=year, journal="J", specialty=specialty, field="F",
        doctype="article", countries=tuple(sorted(countries)), citations=0)


def test_single_record_yields_complete_graph():
    net = build_network([rec("p1", ["AR", "BR", "CL"])])
    assert net.nodes == ("AR", "BR", "CL")
    assert set(net.edges) == {("AR", "BR"), ("AR", "CL"), ("BR", "CL")}
    assert all(e.copub_count == 1 for e in net.edges.values())


def test_single_country_record_dropped_as_isolate():
    net = build_network([rec("p1", ["AR"]), rec("p2", ["BR", "CL"])])
    assert net.nodes == ("BR", "CL")
    net_keep = build_network([rec("p1", ["AR"]), rec("p2", ["BR", "CL"])],
                             isolate_policy="keep")
    assert net_keep.nodes == ("AR", "BR", "CL")
    assert net_keep.degree("AR") == 0


def test_empty_slice_is_an_error():
    with pytest.raises(ValueError, match="empty slice"):
        build_network([])


def test_mixed_slice_is_an_error():
    with pytest.raises(ValueError, match="mixed years"):
        build_network([rec("a", ["AR", "BR"], year=2008),
                       rec("b", ["AR", "BR"], year=2013)])
    with pytest.raises(ValueError, match="mixed specialties"):
        build_network([rec("a", ["AR", "BR"], specialty="Virology"),
                       rec("b", ["AR", "BR"], specialty="Seismology")])


def test_counts_match_brute_force_pair_tally():
    cfg = syngen.GenConfig.default(seed=17, n_papers=500, years=(2013,))
    records, truth = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(),
                  syngen.specialty_map_for(cfg))
    slice_ = [r for r in corp if r.specialty == "Virology"]
    net = build_network(slice_)

    tally: dict[tuple[str, str], int] = {}
    for row in truth:
        if row.field != "Virology" or len(row.countries) < 2:
            continue
        for a, b in combinations(sorted(row.countries), 2):
            tally[(a, b)] = tally.get((a, b), 0) + 1
    assert {k: e.copub_count for k, e in net.edges.items()} == tally


def test_node_strength_counts_international_papers():
    records = [rec("a", ["AR", "BR"]), rec("b", ["AR", "CL"]),
               rec("c", ["AR"]), rec("d", ["AR", "BR", "CL"])]
    net = build_network(records)
    assert net.node_strength == {"AR": 3, "BR": 2, "CL": 2}


def test_cosine_perfect_overlap_is_one():
    records = [rec(f"p{i}", ["AR", "BR"]) for i in range(4)]
    net = cosine_weights(build_network(records))
    assert net.edges[("AR", "BR")].cosine == pytest.approx(1.0, abs=0)


def test_cosine_direct_formula_evaluation():
    # n_AB = 2, n_A = n_B = 4 -> 2 / sqrt(16) = 0.5
    records = [rec("p1", ["AR", "BR"]), rec("p2", ["AR", "BR"]),
               rec("p3", ["AR", "CL"]), rec("p4", ["AR", "PE"]),
               rec("p5", ["BR", "CL"]), rec("p6", ["BR", "PE"])]
    net = cosine_weights(build_network(records))
    assert net.node_strength["AR"] == 4
    assert net.node_strength["BR"] == 4
    assert net.edges[("AR", "BR")].cosine == pytest.approx(0.5, abs=1e-15)
    assert ("CL", "PE") not in net.edges  # never co-occur: weight conceptually 0


def test_cosine_in_unit_interval_and_symmetric_by_construction():
    cfg = syngen.GenConfig.default(seed=5, n_papers=400, years=(2013,))
    records, _ = syngen.generate(cfg)
    corp = ingest(syngen.records_jsonl(records).splitlines(),
                  syngen.specialty_map_for(cfg))
    net = cosine_weights(build_network([r for r in corp if r.specialty == "Astrophysics"]))
    for (a, b), e in net.edges.items():
        assert 0.0 < e.cosine <= 1.0
        assert e.copub_count <= min(net.node_strength[a], net.node_strength[b])


def test_cosine_zero_strength_is_internal_error():
    broken = CollabNetwork(specialty="", year=0, nodes=("AR", "BR"),
                           edges={("AR", "BR"): Edge(1)},
                           node_strength={"AR": 0, "BR": 1})
    with pytest.raises(RuntimeError, match="consistency"):
        cosine_weights(broken)


def test_build_is_permutation_invariant():
    rng = np.random.default_rng(2)
    records = [rec(f"p{i}", ["AR", "BR", "CL", "PE", "UY"][: 2 + i % 3])
               for i in range(30)]
    base = build_network(records)
    for _ in range(5):
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert build_network(shuffled) == base


def test_arcs_mode_doubles_reported_count_only():
    records = [rec("a", ["AR", "BR", "CL"])]
    edges_net = build_network(records, count_mode="edges")
    arcs_net = build_network(records, count_mode="arcs")
    assert arcs_net.reported_edge_count == 2 * edges_net.reported_edge_count
    assert arcs_net.edges == edges_net.edges
    assert arcs_net.n_edges == edges_net.n_edges


def test_copub_sum_bounded_by_multi_country_records():
    pair_only = [rec(f"p{i}", ["AR", "BR"]) for i in range(7)]
    net = build_network(pair_only)
    assert sum(e.copub_count for e in net.edges.values()) == 7  # equality iff all pairs
    with_triple = pair_only + [rec("t", ["AR", "BR", "CL"])]
    net2 = build_network(with_triple)
    assert sum(e.copub_count for e in net2.edges.values()) > 8


def test_edgelist_csv_exact_line():
    net = CollabNetwork(specialty="", year=0, nodes=("A", "B"),
                        edges={("A", "B"): Edge(3, 1.0)},
                        node_strength={"A": 3, "B": 3})
    text = export_edgelist(net)
    assert text == "source,target,copub_count,cosine\nA,B,3,1.0\n"
    assert export_edgelist(net, header=False) == "A,B,3,1.0\n"


def test_export_is_deterministic():
    records = [rec(f"p{i}", ["AR", "BR", "CL", "PE"][: 2 + i % 2]) for i in range(9)]
    net = cosine_weights(build_network(records))
    for fmt in ("graphml", "dot", "edgelist_csv"):
        assert export(net, fmt) == export(net, fmt)


def test_export_unknown_format_lists_supported():
    net = build_network([rec("a", ["AR", "BR"])])
    with pytest.raises(ValueError, match="graphml, dot, edgelist_csv"):
        export(net, "gexf")


def test_graphml_element_counts_for_small_snapshot():
    net = network_of_size(14, 17, specialty="Mathematical Logic", year=1990)
    text = export_graphml(net)
    root = ElementTree.fromstring(text)
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    graph = root.find(f"{ns}graph")
    assert len(graph.findall(f"{ns}node")) == 14
    assert len(graph.findall(f"{ns}edge")) == 17


def test_graphml_round_trip():
    records = [rec(f"p{i}", ["AR", "BR", "CL", "PE"][: 2 + i % 3]) for i in range(12)]
    net = cosine_weights(build_network(records))
    back = read_graphml(export_graphml(net))
    assert back.nodes == net.nodes
    assert back.specialty == net.specialty
    assert back.year == net.year
    assert {k: (e.copub_count, pytest.approx(e.cosine)) for k, e in back.edges.items()} \
        == {k: (e.copub_count, pytest.approx(e.cosine)) for k, e in net.edges.items()}


def test_edgelist_round_trip(tmp_path):
    records = [rec(f"p{i}", ["AR", "BR", "CL"][: 2 + i % 2]) for i in range(6)]
    net = cosine_weights(build_network(records))
    p = tmp_path / "net.csv"
    p.write_text(export_edgelist(net))
    back = read_edgelist(p, specialty=net.specialty, year=net.year)
    assert back.nodes == net.nodes
    assert {k: e.copub_count for k, e in back.edges.items()} \
        == {k: e.copub_count for k, e in net.edges.items()}


def test_network_of_size_has_exact_counts():
    for n, e in [(14, 17), (32, 58), (87, 1251)]:
        net = network_of_size(n, e)
        assert net.n_nodes == n
        assert net.n_edges == e
    with pytest.raises(ValueError, match="do not fit"):
        network_of_size(4, 7)


@pytest.mark.parametrize("text,message", [
    # self-loop next to the path US-DE-FR-GB
    ("source,target\nUS,US\nUS,DE\nDE,FR\nFR,GB\n", "line 2: self-loop US-US"),
    # the same pair twice, once in each direction
    ("US,DE,2\nDE,FR,1\nDE,US,5\n", "line 3: duplicate pair DE-US"),
])
def test_edgelist_rejects_non_simple_graphs(text, message):
    with pytest.raises(ValueError, match=message):
        read_edgelist(text.splitlines())


@pytest.mark.parametrize("ends,message", [
    ([("US", "DE"), ("FR", "FR")], "<edge> 2: self-loop FR-FR"),
    ([("US", "DE"), ("DE", "FR"), ("DE", "US")], "<edge> 3: duplicate pair DE-US"),
])
def test_graphml_rejects_non_simple_graphs(ends, message):
    text = ('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<graph id="collab" edgedefault="undirected">'
            + "".join(f'<node id="{v}"/>' for v in ("DE", "FR", "US"))
            + "".join(f'<edge source="{a}" target="{b}"/>' for a, b in ends)
            + "</graph></graphml>")
    with pytest.raises(ValueError, match=message):
        read_graphml(text)
