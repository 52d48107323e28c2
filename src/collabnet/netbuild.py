"""Country-to-country collaboration networks for one (specialty, year) slice.

Each publication with country set S contributes one co-publication count to
every unordered pair in S. Networks are undirected, store each pair once,
and are immutable once built. Salton cosine weights are derived from the
pair counts and the per-country counts of internationally coauthored papers.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

from .corpus import PublicationRecord
from .countries import sorted_codes

ISOLATE_POLICIES = ("keep", "drop")
COUNT_MODES = ("edges", "arcs")
EXPORT_FORMATS = ("graphml", "dot", "edgelist_csv")

EDGELIST_COLUMNS = ("source", "target", "copub_count", "cosine")


@dataclass(frozen=True)
class Edge:
    copub_count: int
    cosine: float | None = None


@dataclass(frozen=True)
class CollabNetwork:
    """Undirected weighted graph over country codes for one snapshot."""

    specialty: str
    year: int
    nodes: tuple[str, ...]                    # lexicographic order
    edges: dict[tuple[str, str], Edge]        # key (a, b) with a < b
    node_strength: dict[str, int]             # international papers per country
    isolate_policy: str = "drop"
    count_mode: str = "edges"

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def reported_edge_count(self) -> int:
        """Edge count under the network's counting convention.

        Arc counting reports each undirected link twice (legacy
        comparability); the stored graph is unchanged.
        """
        factor = 2 if self.count_mode == "arcs" else 1
        return factor * len(self.edges)

    def degree(self, node: str) -> int:
        return sum(1 for a, b in self.edges if a == node or b == node)


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def build_network(records: Sequence[PublicationRecord], isolate_policy: str = "drop",
                  count_mode: str = "edges") -> CollabNetwork:
    """Build the collaboration network for a single (specialty, year) slice.

    All records must share one specialty and year. Records with fewer than
    two countries contribute no edges; under the default isolate policy
    their countries are discounted entirely.
    """
    if isolate_policy not in ISOLATE_POLICIES:
        raise ValueError(f"isolate_policy must be one of {ISOLATE_POLICIES}")
    if count_mode not in COUNT_MODES:
        raise ValueError(f"count_mode must be one of {COUNT_MODES}")
    if not records:
        raise ValueError("empty slice")
    years = {r.year for r in records}
    specialties = {r.specialty for r in records}
    if len(years) > 1:
        raise ValueError(f"mixed years in slice: {sorted(years)}")
    if len(specialties) > 1:
        raise ValueError(f"mixed specialties in slice: {sorted(specialties)}")

    counts: dict[tuple[str, str], int] = {}
    strength: dict[str, int] = {}
    seen: set[str] = set()
    for rec in records:
        seen.update(rec.countries)
        if not rec.is_international():
            continue
        for c in rec.countries:
            strength[c] = strength.get(c, 0) + 1
        for a, b in combinations(rec.countries, 2):  # countries pre-sorted
            key = _edge_key(a, b)
            counts[key] = counts.get(key, 0) + 1

    linked = {v for pair in counts for v in pair}
    nodes = linked if isolate_policy == "drop" else seen
    return CollabNetwork(
        specialty=next(iter(specialties)),
        year=next(iter(years)),
        nodes=tuple(sorted(nodes)),
        edges={k: Edge(copub_count=v) for k, v in sorted(counts.items())},
        node_strength={v: strength.get(v, 0) for v in sorted(nodes)},
        isolate_policy=isolate_policy,
        count_mode=count_mode,
    )


def cosine_weights(net: CollabNetwork) -> CollabNetwork:
    """Populate Salton cosine weights n_ij / sqrt(n_i * n_j)."""
    edges: dict[tuple[str, str], Edge] = {}
    for (a, b), e in net.edges.items():
        na, nb = net.node_strength.get(a, 0), net.node_strength.get(b, 0)
        if na <= 0 or nb <= 0:
            raise RuntimeError(
                f"internal consistency error: edge {a}-{b} with zero node strength"
            )
        edges[(a, b)] = Edge(copub_count=e.copub_count,
                             cosine=e.copub_count / math.sqrt(na * nb))
    return replace(net, edges=edges)


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
    pairs: list[tuple[str, str]] = []
    hub = labels[0]
    pairs.extend(_edge_key(hub, v) for v in labels[1:])
    for a, b in combinations(labels[1:], 2):
        pairs.append(_edge_key(a, b))
    chosen = pairs[:n_edges]
    strength: dict[str, int] = {v: 0 for v in labels}
    for a, b in chosen:
        strength[a] += 1
        strength[b] += 1
    net = CollabNetwork(
        specialty=specialty,
        year=year,
        nodes=tuple(labels),
        edges={k: Edge(copub_count=1) for k in sorted(chosen)},
        node_strength=strength,
        isolate_policy="keep",
    )
    return cosine_weights(net)


def _fmt_cosine(value: float | None) -> str:
    return "" if value is None else repr(value)


def export_edgelist(net: CollabNetwork, header: bool = True) -> str:
    """Edge list CSV `source,target,copub_count,cosine`, LF endings."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header:
        writer.writerow(EDGELIST_COLUMNS)
    for (a, b), e in sorted(net.edges.items()):
        writer.writerow([a, b, e.copub_count, _fmt_cosine(e.cosine)])
    return out.getvalue()


def export_dot(net: CollabNetwork) -> str:
    lines = [f"graph {quoteattr(net.specialty or 'collab')} {{"]
    for v in net.nodes:
        lines.append(f'  "{v}";')
    for (a, b), e in sorted(net.edges.items()):
        attrs = f"copub_count={e.copub_count}"
        if e.cosine is not None:
            attrs += f", cosine={repr(e.cosine)}"
        lines.append(f'  "{a}" -- "{b}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graphml(net: CollabNetwork) -> str:
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
    for (a, b), e in sorted(net.edges.items()):
        lines.append(f'    <edge source={quoteattr(a)} target={quoteattr(b)}>')
        lines.append(f'      <data key="copub_count">{e.copub_count}</data>')
        if e.cosine is not None:
            lines.append(f'      <data key="cosine">{repr(e.cosine)}</data>')
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
    if fmt in ("edgelist_csv", "csv"):
        return export_edgelist(net, header=header)
    raise ValueError(f"unknown format {fmt!r}; supported: {', '.join(EXPORT_FORMATS)}")


def _new_edge_key(edges: dict, where: str, a: str, b: str) -> tuple[str, str]:
    """Key of an edge not yet in `edges`; self-loops and repeated pairs are errors."""
    if a == b:
        raise ValueError(f"{where}: self-loop {a}-{b}")
    key = _edge_key(a, b)
    if key in edges:
        raise ValueError(f"{where}: duplicate pair {key[0]}-{key[1]}")
    return key


def read_edgelist(source: str | Path | Iterable[str], specialty: str = "",
                  year: int = 0) -> CollabNetwork:
    """Read an edge list CSV back into a network (nodes = edge endpoints).

    A self-loop or a pair listed twice (in either direction) is a
    ValueError naming the line.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    else:
        rows = list(csv.reader(source))
    first_line = 1
    if rows and rows[0][:2] == ["source", "target"]:
        rows, first_line = rows[1:], 2
    edges: dict[tuple[str, str], Edge] = {}
    strength: dict[str, int] = {}
    for lineno, row in enumerate(rows, start=first_line):
        if not row or not "".join(row).strip():
            continue
        a, b = row[0], row[1]
        count = int(row[2]) if len(row) > 2 and row[2] != "" else 1
        cos = float(row[3]) if len(row) > 3 and row[3] != "" else None
        key = _new_edge_key(edges, f"line {lineno}", a, b)
        edges[key] = Edge(copub_count=count, cosine=cos)
        strength[a] = strength.get(a, 0) + count
        strength[b] = strength.get(b, 0) + count
    nodes = tuple(sorted({v for pair in edges for v in pair}))
    return CollabNetwork(specialty=specialty, year=year, nodes=nodes,
                         edges=dict(sorted(edges.items())),
                         node_strength=strength)


_GML_NS = "{http://graphml.graphdrawing.org/xmlns}"


def read_graphml(source: str | Path) -> CollabNetwork:
    """Read a network exported by `export_graphml`.

    A self-loop or a repeated pair is a ValueError naming the 1-based
    `<edge>` index.
    """
    if isinstance(source, Path) or (isinstance(source, str) and not source.lstrip().startswith("<")):
        tree = ElementTree.parse(source)
        root = tree.getroot()
    else:
        root = ElementTree.fromstring(source)
    graph = root.find(f"{_GML_NS}graph")
    if graph is None:
        raise ValueError("no <graph> element found")
    specialty, year = "", 0
    for data in graph.findall(f"{_GML_NS}data"):
        if data.get("key") == "specialty":
            specialty = data.text or ""
        elif data.get("key") == "year":
            year = int(data.text or 0)
    nodes = tuple(sorted(n.get("id") for n in graph.findall(f"{_GML_NS}node")))
    edges: dict[tuple[str, str], Edge] = {}
    strength: dict[str, int] = {}
    for i, el in enumerate(graph.findall(f"{_GML_NS}edge"), start=1):
        a, b = el.get("source"), el.get("target")
        count, cos = 1, None
        for data in el.findall(f"{_GML_NS}data"):
            if data.get("key") == "copub_count":
                count = int(data.text)
            elif data.get("key") == "cosine":
                cos = float(data.text)
        key = _new_edge_key(edges, f"<edge> {i}", a, b)
        edges[key] = Edge(copub_count=count, cosine=cos)
        strength[a] = strength.get(a, 0) + count
        strength[b] = strength.get(b, 0) + count
    return CollabNetwork(specialty=specialty, year=year, nodes=nodes,
                         edges=dict(sorted(edges.items())),
                         node_strength={v: strength.get(v, 0) for v in nodes})
