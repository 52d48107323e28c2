"""Country-to-country collaboration networks for one (specialty, year) slice.

Each publication with country set S contributes one co-publication count to
every unordered pair in S. Networks are undirected, store each pair once,
and are immutable once built. Salton cosine weights are derived from the
pair counts and the per-country counts of internationally coauthored papers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .corpus import PublicationRecord, _csv_rows, _csv_text, _number
from .countries import sorted_codes

ISOLATE_POLICIES = ("keep", "drop")
# Network file formats, and the output suffixes that name one; any other
# suffix means the edge-list CSV.
EXPORT_FORMATS = ("graphml", "dot", "csv")
FORMAT_SUFFIXES = {".graphml": "graphml", ".dot": "dot", ".gv": "dot"}

EDGELIST_COLUMNS = ("source", "target", "copub_count", "cosine")


class Edge(NamedTuple):
    copub_count: int
    cosine: float | None = None


@dataclass(frozen=True)
class CollabNetwork:
    """Undirected weighted graph over country codes for one snapshot, with
    one column entry per edge, edges sorted by (src, dst)."""

    specialty: str
    year: int
    nodes: tuple[str, ...]                    # lexicographic order
    src: tuple[int, ...]                      # edge k joins nodes[src[k]] and
    dst: tuple[int, ...]                      # nodes[dst[k]], src[k] < dst[k]
    count: tuple[int, ...]                    # co-publications
    cosine: tuple[float | None, ...]          # None when unweighted
    node_strength: dict[str, int]             # international papers per country

    @classmethod
    def from_edges(cls, specialty: str, year: int, nodes: Iterable[str],
                   edges: Mapping[tuple[str, str], Edge],
                   node_strength: dict[str, int]) -> "CollabNetwork":
        """The network of keyed edges `{(a, b): Edge}`, keys in any order and
        either orientation; an edge `_network` rejects is a ValueError naming
        its key."""
        rows = ((f"edge {a!r}-{b!r}", a, b, e.copub_count, e.cosine)
                for (a, b), e in edges.items())
        return replace(_network(specialty, year, rows, set(nodes)), node_strength=node_strength)

    @property
    def edges(self) -> dict[tuple[str, str], Edge]:
        """`{(a, b): Edge}` with a < b, in (a, b) order; a new dict on every read."""
        return {(a, b): Edge(n, c) for a, b, n, c in _edge_rows(self)}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.src)


def _edge_rows(net: CollabNetwork) -> Iterator[tuple[str, str, int, float | None]]:
    """(a, b, count, cosine) of every edge, in column order."""
    label = net.nodes.__getitem__
    return zip(map(label, net.src), map(label, net.dst), net.count, net.cosine)


def build_network(records: Sequence[PublicationRecord],
                  isolate_policy: str = "drop") -> CollabNetwork:
    """Build the collaboration network for a single (specialty, year) slice.

    All records must share one specialty and year, each with its countries
    sorted. Records with fewer than two countries contribute no edges; under
    the default isolate policy their countries are discounted entirely.
    """
    if isolate_policy not in ISOLATE_POLICIES:
        raise ValueError(f"isolate_policy must be one of {ISOLATE_POLICIES}")
    if not records:
        raise ValueError("empty slice")
    years = {r.year for r in records}
    specialties = {r.specialty for r in records}
    if len(years) > 1:
        raise ValueError(f"mixed years in slice: {sorted(years)}")
    if len(specialties) > 1:
        raise ValueError(f"mixed specialties in slice: {sorted(specialties)}")

    international = [r.countries for r in records if r.is_international()]
    strength = Counter(chain.from_iterable(international))
    # every country of an international record has an edge, so it is not dropped
    nodes = tuple(sorted(strength if isolate_policy == "drop"
                         else set(chain.from_iterable(r.countries for r in records))))
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    # Edge keys src * n + dst sort in (src, dst) order (src < dst: countries are
    # sorted within a record); unlike pair tuples, ints do not set off the GC.
    counts = Counter(index[a] * n + index[b] for c in international
                     for a, b in combinations(c, 2))
    keys = sorted(counts)
    return CollabNetwork(next(iter(specialties)), next(iter(years)), nodes,
                         tuple(k // n for k in keys), tuple(k % n for k in keys),
                         tuple(map(counts.__getitem__, keys)), (None,) * len(keys),
                         {v: strength[v] for v in nodes})


def cosine_weights(net: CollabNetwork) -> CollabNetwork:
    """Populate Salton cosine weights n_ij / sqrt(n_i * n_j)."""
    strength = [net.node_strength.get(v, 0) for v in net.nodes]
    if min(strength, default=1) <= 0:  # an error only where such a node has an edge
        for i, j in zip(net.src, net.dst):
            if strength[i] <= 0 or strength[j] <= 0:
                raise RuntimeError(f"internal consistency error: edge {net.nodes[i]}-"
                                   f"{net.nodes[j]} with zero node strength")
    return replace(net, cosine=tuple(n / math.sqrt(strength[i] * strength[j])
                                     for i, j, n in zip(net.src, net.dst, net.count)))


def network_of_size(n_nodes: int, n_edges: int, specialty: str = "",
                    year: int = 0) -> CollabNetwork:
    """Deterministic synthetic network with exactly the given size.

    Nodes are the first `n_nodes` codes of the country universe. A star on
    the first node is laid down first (no isolates once n_edges >= n_nodes-1),
    then remaining pairs in lexicographic order. Each edge carries one
    co-publication; node strength equals degree, as if every edge were a
    separate two-country paper.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    cap = n_nodes * (n_nodes - 1) // 2
    if n_edges > cap:
        raise ValueError(f"{n_edges} edges do not fit in {n_nodes} nodes (max {cap})")
    labels = sorted_codes()[:n_nodes]
    if len(labels) < n_nodes:
        raise ValueError("n_nodes exceeds the country universe")
    pairs = [(labels[0], v) for v in labels[1:]] + list(combinations(labels[1:], 2))
    rows = ((f"edge {a!r}-{b!r}", a, b, None, None) for a, b in pairs[:n_edges])
    return cosine_weights(_network(specialty, year, rows, set(labels)))


def export_edgelist(net: CollabNetwork, header: bool = True) -> str:
    """Edge list CSV `source,target,copub_count,cosine`, LF endings."""
    rows = [(a, b, n, "" if c is None else repr(c)) for a, b, n, c in _edge_rows(net)]
    return _csv_text([EDGELIST_COLUMNS, *rows] if header else rows)


def export_dot(net: CollabNetwork) -> str:
    from xml.sax.saxutils import quoteattr  # loads urllib.request: keep off `build` CSV

    lines = [f"graph {quoteattr(net.specialty or 'collab')} {{"]
    for v in net.nodes:
        lines.append(f'  "{v}";')
    for a, b, n, c in _edge_rows(net):
        attrs = f"copub_count={n}"
        if c is not None:
            attrs += f", cosine={repr(c)}"
        lines.append(f'  "{a}" -- "{b}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graphml(net: CollabNetwork) -> str:
    from xml.sax.saxutils import escape, quoteattr

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="specialty" for="graph" attr.name="specialty" attr.type="string"/>',
        '  <key id="year" for="graph" attr.name="year" attr.type="int"/>',
        '  <key id="copub_count" for="edge" attr.name="copub_count" attr.type="int"/>',
        '  <key id="cosine" for="edge" attr.name="cosine" attr.type="double"/>',
        '  <graph id="collab" edgedefault="undirected">',
        f'    <data key="specialty">{escape(net.specialty)}</data>',
        f'    <data key="year">{net.year}</data>',
    ]
    for v in net.nodes:
        lines.append(f'    <node id={quoteattr(v)}/>')
    for a, b, n, c in _edge_rows(net):
        lines.append(f'    <edge source={quoteattr(a)} target={quoteattr(b)}>')
        lines.append(f'      <data key="copub_count">{n}</data>')
        if c is not None:
            lines.append(f'      <data key="cosine">{repr(c)}</data>')
        lines.append('    </edge>')
    lines.append('  </graph>')
    lines.append('</graphml>')
    return "\n".join(lines) + "\n"


def export(net: CollabNetwork, fmt: str, header: bool = True) -> str:
    """Serialize a network. Output is deterministic for a given network.

    `header` applies to the edge-list CSV only.
    """
    if fmt == "graphml":
        return export_graphml(net)
    if fmt == "dot":
        return export_dot(net)
    if fmt == "csv":
        return export_edgelist(net, header=header)
    raise ValueError(f"unknown format {fmt!r}; supported: {', '.join(EXPORT_FORMATS)}")


def _network(specialty: str, year: int, rows: Iterable[tuple], nodes=None) -> CollabNetwork:
    """The network of `(where, source, target, count, cosine)` rows.

    Nodes are `nodes` when given, else the edge endpoints, and a node's
    strength is the sum of its edges' counts. A count of None means 1 and a
    cosine of None means none. A missing endpoint, an endpoint not in `nodes`,
    a self-loop, a pair repeated in either direction, a count that is not a
    positive integer or a cosine that is not a finite number is a ValueError
    naming the row's `where`; a node labelled "" or None, one naming `nodes`.
    """
    if nodes is not None and not nodes.isdisjoint(("", None)):  # read_graphml rejects one
        raise ValueError("nodes: missing node label")
    edges: dict[tuple[str, str], tuple[int, float | None]] = {}
    strength: dict[str, int] = {}
    for where, a, b, count, cosine in rows:
        if "" in (a, b) or None in (a, b):  # not a falsy test: 0 is a node label
            raise ValueError(f"{where}: missing endpoint (source {a!r}, target {b!r})")
        for v in (a, b):
            if nodes is not None and v not in nodes:
                raise ValueError(f"{where}: endpoint {v!r} is not a declared node")
        if a == b:
            raise ValueError(f"{where}: self-loop {a}-{b}")
        key = (a, b) if a < b else (b, a)
        if key in edges:
            raise ValueError(f"{where}: duplicate pair {key[0]}-{key[1]}")
        count = 1 if count is None else _number(count, int, f"{where}: copub_count")
        if count < 1:
            raise ValueError(f"{where}: copub_count must be positive, got {count}")
        cosine = None if cosine is None else _number(cosine, float, f"{where}: cosine")
        edges[key] = (count, cosine)
        for v in key:
            strength[v] = strength.get(v, 0) + count
    ordered = tuple(sorted({v for key in edges for v in key} if nodes is None else nodes))
    index = {v: i for i, v in enumerate(ordered)}
    columns = sorted((index[a], index[b], *e) for (a, b), e in edges.items())  # keys unique
    src, dst, count, cosine = zip(*columns) if columns else ((), (), (), ())
    return CollabNetwork(specialty, year, ordered, src, dst, count, cosine,
                         {v: strength.get(v, 0) for v in ordered})


def read_edgelist(source: str | Path | Iterable[str], specialty: str = "",
                  year: int = 0) -> CollabNetwork:
    """Read an edge list CSV back into a network (nodes = edge endpoints).

    A first row `source,target,...` is a header, in any case and with spaces
    around the cells. A row with fewer than two columns, or any row `_network`
    rejects, is a ValueError naming the line.
    """
    def rows():
        for line, row in _csv_rows(source, ("source", "target")):
            if len(row) < 2:
                raise ValueError(f"line {line}: expected at least 2 columns "
                                 f"(source,target), got {len(row)}")
            padded = row + ["", ""]
            yield f"line {line}", row[0], row[1], padded[2] or None, padded[3] or None

    return _network(specialty, year, rows())


_GML_NS = "{http://graphml.graphdrawing.org/xmlns}"


def read_graphml(source: str | Path) -> CollabNetwork:
    """Read a network exported by `export_graphml`.

    A `<node>` without an id or declared twice is a ValueError naming its
    1-based `<node>` index; any edge `_network` rejects, one naming its
    1-based `<edge>` index; a graph year `_number` rejects as an integer, one naming
    its `<data key="year">`; text that is not well-formed XML, one naming the
    line and column where parsing stopped. A `<data>` element present but
    empty is invalid.
    """
    from xml.etree import ElementTree  # loads pyexpat: keep off the CSV commands
    try:
        if isinstance(source, Path) or (isinstance(source, str) and not source.lstrip().startswith("<")):
            root = ElementTree.parse(source).getroot()
        else:
            root = ElementTree.fromstring(source)
    except ElementTree.ParseError as exc:  # its text ends with the line and column
        raise ValueError(f"not well-formed XML: {exc}") from None
    except LookupError as exc:  # the XML declaration, always on line 1, names no codec
        raise ValueError(f"line 1: {exc}") from None
    graph = root.find(f"{_GML_NS}graph")
    if graph is None:
        raise ValueError("no <graph> element found")
    specialty, year = "", 0
    for data in graph.findall(f"{_GML_NS}data"):
        if data.get("key") == "specialty":
            specialty = data.text or ""
        elif data.get("key") == "year":
            year = _number(data.text or "", int, '<data key="year">: year')
    nodes: set[str] = set()
    for i, el in enumerate(graph.findall(f"{_GML_NS}node"), start=1):
        v = el.get("id")
        if not v:
            raise ValueError(f"<node> {i}: missing id")
        if v in nodes:
            raise ValueError(f"<node> {i}: duplicate node {v}")
        nodes.add(v)

    def rows():
        for i, el in enumerate(graph.findall(f"{_GML_NS}edge"), start=1):
            data = {d.get("key"): d.text or "" for d in el.findall(f"{_GML_NS}data")}
            yield (f"<edge> {i}", el.get("source"), el.get("target"),
                   data.get("copub_count"), data.get("cosine"))

    return _network(specialty, year, rows(), nodes)
