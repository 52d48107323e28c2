import math
from itertools import combinations
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabnet import syngen
from collabnet.cli import main
from collabnet.corpus import Corpus, PublicationRecord, ingest
from collabnet.countries import sorted_codes
from collabnet.metrics import degree_stats
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
    assert not any("AR" in pair for pair in net_keep.edges)


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
    broken = CollabNetwork.from_edges(specialty="", year=0, nodes=("AR", "BR"),
                                      edges={("AR", "BR"): Edge(1)},
                                      node_strength={"AR": 0, "BR": 1})
    with pytest.raises(RuntimeError, match="consistency"):
        cosine_weights(broken)


@pytest.mark.parametrize("edges,message", [
    ({("AR", "AR"): Edge(1)}, "edge 'AR'-'AR': self-loop AR-AR"),
    ({("AR", "BR"): Edge(1), ("BR", "AR"): Edge(1, 0.5)},
     "edge 'BR'-'AR': duplicate pair AR-BR"),
    ({("AR", "CL"): Edge(1)}, "edge 'AR'-'CL': endpoint 'CL' is not a declared node"),
    # the rules the readers apply, so that every network exports to a file that reads back
    ({("AR", "BR"): Edge(0)}, "edge 'AR'-'BR': copub_count must be positive, got 0"),
    ({("AR", "BR"): Edge(-1)}, "edge 'AR'-'BR': copub_count must be positive, got -1"),
    ({("AR", "BR"): Edge(1, math.nan)}, "edge 'AR'-'BR': cosine nan is not a number"),
    ({("AR", "BR"): Edge(1, math.inf)}, "edge 'AR'-'BR': cosine inf is not a number"),
    ({("", "AR"): Edge(1)}, "edge ''-'AR': missing endpoint (source '', target 'AR')"),
    # a number that int() or float() would coerce, as the input rule reads it
    ({("AR", "BR"): Edge(1.5)}, "edge 'AR'-'BR': copub_count 1.5 is not an integer"),
    ({("AR", "BR"): Edge(True, "0.5")}, "edge 'AR'-'BR': copub_count True is not an integer"),
    ({("AR", "BR"): Edge(1, False)}, "edge 'AR'-'BR': cosine False is not a number"),
    ({("AR", "BR"): Edge("1_0")}, "edge 'AR'-'BR': copub_count '1_0' is not an integer"),
])
def test_keyed_constructor_rejects_a_self_loop_a_repeated_pair_or_an_unknown_node(edges, message):
    with pytest.raises(ValueError) as exc:
        CollabNetwork.from_edges("", 0, ("AR", "BR"), edges, {"AR": 1, "BR": 1})
    assert str(exc.value) == message


def test_keyed_constructor_reads_numpy_and_text_numbers_as_plain_ones():
    net = CollabNetwork.from_edges("", 0, ("AR", "BR", "CL"), {
        ("AR", "BR"): Edge(np.int64(2), np.float64(0.5)), ("BR", "CL"): Edge(" 3 ", "1e-2")}, {})
    assert net.edges == {("AR", "BR"): (2, 0.5), ("BR", "CL"): (3, 0.01)}
    assert [type(v) for v in (*net.count, *net.cosine)] == [int, int, float, float]


@pytest.mark.parametrize("nodes", [("", "AR", "BR"), ("AR", None, "BR")])
def test_keyed_constructor_rejects_a_node_with_no_label(nodes):
    # an isolated node: no edge rule sees it, and GraphML would write <node id=""/>
    with pytest.raises(ValueError, match="^nodes: missing node label$"):
        CollabNetwork.from_edges("", 0, nodes, {("AR", "BR"): Edge(1)}, {})


# Labels that CSV and GraphML can both hold, with the characters they quote
LABELS = st.sampled_from(["", " ", "AR", "BR", "CL", "a,b", ' "q" ', "<&>", "source"]) | st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Cn")), max_size=3)


def read_back(net: CollabNetwork, where) -> CollabNetwork:
    """`net` exported as an edge list and as GraphML, each read back from its
    file; checks that both give its edges and returns the GraphML network."""
    (where / "net.csv").write_bytes(export_edgelist(net).encode())
    (where / "net.graphml").write_bytes(export_graphml(net).encode())
    assert read_edgelist(where / "net.csv").edges == net.edges
    back = read_graphml(where / "net.graphml")
    assert back.edges == net.edges
    return back


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.tuples(LABELS, LABELS),
                       st.builds(Edge, st.integers(-1, 3) | st.integers(),
                                 st.none() | st.floats()), max_size=6),
       st.sets(LABELS, max_size=4), st.booleans())
def test_keyed_edges_are_rejected_or_read_back_from_every_export(tmp_path_factory, edges, extra,
                                                                   declare_ends):
    nodes = extra | ({v for key in edges for v in key} if declare_ends else set())
    try:
        net = CollabNetwork.from_edges("Virology", 2013, nodes, edges, {})
    except ValueError:
        return
    assert read_back(net, tmp_path_factory.mktemp("net")).nodes == net.nodes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(LABELS, st.sets(LABELS, max_size=3), max_size=5))
def test_an_adjacency_mapping_is_rejected_or_read_back_from_every_export(tmp_path_factory, adj):
    try:
        degrees = degree_stats(adj)[0]
    except ValueError:
        return
    keyed = {tuple(sorted((v, w))): Edge(1) for v, nbrs in adj.items() for w in nbrs}
    net = CollabNetwork.from_edges("", 0, adj, keyed, {})
    assert degree_stats(read_back(net, tmp_path_factory.mktemp("net")))[0] == degrees


def test_build_is_permutation_invariant():
    rng = np.random.default_rng(2)
    records = [rec(f"p{i}", ["AR", "BR", "CL", "PE", "UY"][: 2 + i % 3])
               for i in range(30)]
    base = build_network(records)
    for _ in range(5):
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert build_network(shuffled) == base


def test_arcs_mode_doubles_reported_count_only(tmp_path, monkeypatch, capsys):
    # `build --count-mode arcs` doubles the edge count on its stderr summary only
    monkeypatch.chdir(tmp_path)
    Corpus(records={"a": rec("a", ["AR", "BR", "CL"])}).save("corpus.jsonl")
    for mode in ("edges", "arcs"):
        assert main(["build", "--input", "corpus.jsonl", "--specialty", "Virology",
                     "--year", "2013", "--count-mode", mode, "--out", f"{mode}.csv"]) == 0
    assert capsys.readouterr().err == ("Virology 2013: 3 nodes, 3 edges (edges)\n"
                                       "Virology 2013: 3 nodes, 6 edges (arcs)\n")
    assert (tmp_path / "arcs.csv").read_text() == (tmp_path / "edges.csv").read_text()


def test_copub_sum_bounded_by_multi_country_records():
    pair_only = [rec(f"p{i}", ["AR", "BR"]) for i in range(7)]
    net = build_network(pair_only)
    assert sum(e.copub_count for e in net.edges.values()) == 7  # equality iff all pairs
    with_triple = pair_only + [rec("t", ["AR", "BR", "CL"])]
    net2 = build_network(with_triple)
    assert sum(e.copub_count for e in net2.edges.values()) > 8


def test_edgelist_csv_exact_line():
    net = CollabNetwork.from_edges(specialty="", year=0, nodes=("A", "B"),
                                   edges={("A", "B"): Edge(3, 1.0)},
                                   node_strength={"A": 3, "B": 3})
    text = export_edgelist(net)
    assert text == "source,target,copub_count,cosine\nA,B,3,1.0\n"
    assert export_edgelist(net, header=False) == "A,B,3,1.0\n"


def test_export_is_deterministic():
    records = [rec(f"p{i}", ["AR", "BR", "CL", "PE"][: 2 + i % 2]) for i in range(9)]
    net = cosine_weights(build_network(records))
    for fmt in ("graphml", "dot", "csv"):
        assert export(net, fmt) == export(net, fmt)


def test_export_unknown_format_lists_supported():
    net = build_network([rec("a", ["AR", "BR"])])
    with pytest.raises(ValueError, match="graphml, dot, csv"):
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
    # malformed rows: one column, a count that is not a positive integer
    ("source,target\nUS,DE\nFR\n", "line 3: expected at least 2 columns"),
    ("US,DE,x\n", "line 1: copub_count 'x' is not an integer"),
    ("US,DE,2\nDE,FR,0\n", "line 2: copub_count must be positive, got 0"),
    ("US,DE,-3\nDE,FR,1\nFR,GB,1\n", "line 1: copub_count must be positive, got -3"),
    # an empty endpoint, a cosine that is not a number
    ("US,\nDE,FR\nFR,GB\n", "line 1: missing endpoint"),
    ("US,DE,1,abc\n", "line 1: cosine 'abc' is not a number"),
    ("US,DE,1,0.5\nDE,FR,1,nan\n", "line 2: cosine 'nan' is not a number"),
    # number forms that int() and float() read, but the input rule does not
    ("US,DE,1_000\n", "line 1: copub_count '1_000' is not an integer"),
    ("US,DE,\u0663\n", "line 1: copub_count '\u0663' is not an integer"),
    ("US,DE,2.0\n", "line 1: copub_count '2.0' is not an integer"),
    ("US,DE,1,\u0660.5\n", "line 1: cosine '\u0660.5' is not a number"),
    ("US,DE,1,Infinity\n", "line 1: cosine 'Infinity' is not a number"),
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


@pytest.mark.parametrize("counts,message", [
    (["2", "-3"], "<edge> 2: copub_count must be positive, got -3"),
    (["0", "1"], "<edge> 1: copub_count must be positive, got 0"),
    (["1", "many"], "<edge> 2: copub_count 'many' is not an integer"),
])
def test_graphml_rejects_bad_counts(counts, message):
    text = ('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<graph id="collab" edgedefault="undirected">'
            + "".join(f'<node id="{v}"/>' for v in ("DE", "FR", "US"))
            + "".join(f'<edge source="{a}" target="{b}">'
                      f'<data key="copub_count">{c}</data></edge>'
                      for (a, b), c in zip([("DE", "US"), ("DE", "FR")], counts))
            + "</graph></graphml>")
    with pytest.raises(ValueError, match=message):
        read_graphml(text)


def graphml_text(node_elements, edge_elements) -> str:
    return ('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<graph id="collab" edgedefault="undirected">'
            + "".join(node_elements) + "".join(edge_elements)
            + "</graph></graphml>")


TRIANGLE = ['<edge source="US" target="DE"/>', '<edge source="DE" target="FR"/>',
            '<edge source="FR" target="US"/>']


@pytest.mark.parametrize("node_ids,edge_elements,message", [
    (["DE", "FR", "US"], ['<edge source="US"/>'], "<edge> 1: missing endpoint"),
    (["DE", "FR", "US"], ['<edge source="US" target="DE"/>', '<edge source="FR" target="GB"/>'],
     "<edge> 2: endpoint 'GB' is not a declared node"),
    (["US", "DE", "FR", "US"], TRIANGLE, "<node> 4: duplicate node US"),
    (["US", None, "FR"], TRIANGLE[:1], "<node> 2: missing id"),
    (["DE", "US"], ['<edge source="US" target="DE"><data key="cosine">abc</data></edge>'],
     "<edge> 1: cosine 'abc' is not a number"),
    (["DE", "US"], ['<edge source="US" target="DE"><data key="copub_count"></data></edge>'],
     "<edge> 1: copub_count '' is not an integer"),
])
def test_graphml_rejects_malformed_nodes_and_edges(node_ids, edge_elements, message):
    nodes = ["<node/>" if v is None else f'<node id="{v}"/>' for v in node_ids]
    with pytest.raises(ValueError, match=message):
        read_graphml(graphml_text(nodes, edge_elements))


@st.composite
def shuffled_slices(draw) -> list[PublicationRecord]:
    """One slice's records in any order, each with 1 to 6 countries."""
    codes = sorted_codes()[:12]
    sets = draw(st.lists(st.lists(st.sampled_from(codes), min_size=1, max_size=6, unique=True),
                         min_size=1, max_size=40))
    records = [rec(f"p{i}", countries) for i, countries in enumerate(sets)]
    return draw(st.permutations(records))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shuffled_slices(), st.sampled_from(["keep", "drop"]))
def test_build_and_cosine_match_a_brute_force_tally(records, policy):
    pairs: dict[tuple[str, str], int] = {}
    strength: dict[str, int] = {}
    seen: set[str] = set()
    for r in records:
        seen.update(r.countries)
        if len(r.countries) < 2:
            continue
        for a in r.countries:
            strength[a] = strength.get(a, 0) + 1
            for b in r.countries:
                if a < b:
                    pairs[a, b] = pairs.get((a, b), 0) + 1
    nodes = tuple(sorted(seen if policy == "keep" else strength))
    net = cosine_weights(build_network(records, isolate_policy=policy))
    assert net.nodes == nodes
    assert net.node_strength == {v: strength.get(v, 0) for v in nodes}
    assert list(net.edges) == sorted(pairs)
    assert net.edges == {(a, b): Edge(n, n / math.sqrt(strength[a] * strength[b]))
                         for (a, b), n in pairs.items()}
    assert all(isinstance(e, Edge) for e in net.edges.values())
    # the columns, and every export, follow the keyed order with no sort of their own
    assert all(i < j for i, j in zip(net.src, net.dst))
    assert list(zip(net.src, net.dst)) == sorted(zip(net.src, net.dst))
    assert export_edgelist(net, header=False).splitlines() == [
        f"{a},{b},{n},{n / math.sqrt(strength[a] * strength[b])!r}"
        for (a, b), n in sorted(pairs.items())]
    assert [line.split(" [")[0] for line in export(net, "dot").splitlines() if "--" in line] \
        == [f'  "{a}" -- "{b}"' for a, b in sorted(pairs)]
    assert [(e.get("source"), e.get("target")) for e in ElementTree.fromstring(
        export_graphml(net)).iter("{http://graphml.graphdrawing.org/xmlns}edge")] == sorted(pairs)
    # the keyed constructor takes the edges in any order and orientation
    flipped = {(b, a): e for (a, b), e in reversed(net.edges.items())}
    assert CollabNetwork.from_edges(net.specialty, net.year, reversed(net.nodes), flipped,
                                    net.node_strength) == net


@st.composite
def simple_networks(draw) -> CollabNetwork:
    """A simple graph on country codes with counts >= 1, optional cosines and
    isolates; node strength is the sum of incident counts, as the readers
    define it."""
    labels = draw(st.lists(st.sampled_from(sorted_codes()[:30]), min_size=1,
                           max_size=12, unique=True))
    pairs = list(combinations(sorted(labels), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) \
        if pairs else []
    cosines = st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    edges = {key: Edge(copub_count=draw(st.integers(1, 10**6)), cosine=draw(cosines))
             for key in sorted(chosen)}
    strength = {v: 0 for v in sorted(labels)}
    for (a, b), e in edges.items():
        strength[a] += e.copub_count
        strength[b] += e.copub_count
    return CollabNetwork.from_edges(
        specialty=draw(st.sampled_from(["", "Virology", "Soil Science"])),
        year=draw(st.integers(1900, 2100)), nodes=tuple(sorted(labels)),
        edges=edges, node_strength=strength)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(simple_networks(), st.booleans())
def test_readers_invert_exports(net, header):
    back = read_graphml(export_graphml(net))
    assert (back.specialty, back.year) == (net.specialty, net.year)
    assert back.nodes == net.nodes  # isolates kept
    assert back.edges == net.edges
    assert back.node_strength == net.node_strength

    lines = export_edgelist(net, header=header).splitlines(keepends=True)
    back = read_edgelist(lines, specialty=net.specialty, year=net.year)
    linked = {v for key in net.edges for v in key}
    assert back.nodes == tuple(v for v in net.nodes if v in linked)  # isolates dropped
    assert back.edges == net.edges
    assert back.node_strength == {v: s for v, s in net.node_strength.items() if v in linked}


@pytest.mark.parametrize("year", ["20x3", "2013.0", "-", "2_013", "\u0662\u0660\u0661\u0663", ""])
def test_graphml_year_must_be_an_integer(year):
    text = graphml_text(['<node id="DE"/>', '<node id="US"/>'],
                        ['<edge source="US" target="DE"/>'])
    element = f'<data key="year">{year}</data>'
    text = text.replace('edgedefault="undirected">', f'edgedefault="undirected">{element}')
    with pytest.raises(ValueError, match=f"""<data key="year">: year '{year}' is not an integer"""):
        read_graphml(text)
    assert read_graphml(text.replace(element, '<data key="year"> 2013 </data>')).year == 2013
