"""Per-snapshot network statistics battery.

All measures run on the binarized undirected graph: an edge either exists or
it does not, and co-publication counts and cosine weights play no role. The
battery covers size (nodes, edges, diameter), cohesion (average degree,
density), brokerage concentration (betweenness centralization), cliquishness
(transitivity and average local clustering), and a discrete power-law fit of
the degree distribution.

Functions accept either a CollabNetwork or a plain adjacency mapping
`{node: set-of-neighbors}`. Every statistic comes from one dense 0/1
adjacency matrix over the sorted node labels (a snapshot has at most one row
per country, so dense is cheap) and from one level-synchronous BFS run from
all sources at once: shortest-path counts plus one distance mask per level
give components, diameter and Brandes betweenness as matrix products.
Degrees are row sums and triangles the diagonal of A^3 halved.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import zeta

from .netbuild import CollabNetwork

STATS_COLUMNS = (
    "specialty", "year", "nodes", "edges", "diameter", "avg_degree",
    "density", "betweenness_centralization", "transitivity",
    "avg_local_clustering", "components", "alpha",
)


@dataclass(frozen=True)
class NetworkStats:
    """The statistics bundle for one (specialty, year) snapshot."""

    specialty: str
    year: int
    n_nodes: int
    n_edges: int
    diameter: int
    avg_degree: float
    density: float
    betweenness_centralization: float
    transitivity: float
    avg_local_clustering: float
    n_components: int
    powerlaw_alpha: float | None = None

    def to_json_obj(self) -> dict:
        """Keys mirror the stats CSV columns."""
        return {
            "specialty": self.specialty,
            "year": self.year,
            "nodes": self.n_nodes,
            "edges": self.n_edges,
            "diameter": self.diameter,
            "avg_degree": self.avg_degree,
            "density": self.density,
            "betweenness_centralization": self.betweenness_centralization,
            "transitivity": self.transitivity,
            "avg_local_clustering": self.avg_local_clustering,
            "components": self.n_components,
            "alpha": self.powerlaw_alpha,
        }


class DiameterInfo(NamedTuple):
    steps: int
    component_size: int
    n_components: int


class PowerlawFit(NamedTuple):
    alpha: float
    loglik: float


def _matrix(net) -> tuple[list, np.ndarray]:
    """Sorted node labels and the dense 0/1 adjacency matrix in that order."""
    if isinstance(net, CollabNetwork):
        labels, pairs = sorted(net.nodes), list(net.edges)
    else:
        labels = sorted(net)
        pairs = [(v, w) for v, nbrs in net.items() for w in nbrs]
    index = {v: i for i, v in enumerate(labels)}
    rows = [index[a] for a, _ in pairs]
    cols = [index[b] for _, b in pairs]
    A = np.zeros((len(labels), len(labels)))
    A[rows, cols] = A[cols, rows] = 1.0
    return labels, A


def _levels(A: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Level-synchronous BFS from every source at once.

    Returns sigma, where sigma[s, v] counts the shortest s-v paths (1 on the
    diagonal, 0 when v is unreachable from s), and one boolean mask per
    distance: levels[d][s, v] is True when v lies d steps from s.
    """
    sigma = np.eye(len(A))
    levels = [np.eye(len(A), dtype=bool)]
    while True:
        reach = (sigma * levels[-1]) @ A
        new = (reach > 0) & (sigma == 0)
        if not new.any():
            return sigma, levels
        sigma[new] = reach[new]
        levels.append(new)


def _degree_stats(labels: list, A: np.ndarray) -> tuple[dict, float, float]:
    n = len(labels)
    if n < 2:
        raise ValueError("degenerate network: need at least 2 nodes")
    degrees = A.sum(axis=1).astype(np.int64).tolist()
    n_edges = sum(degrees) // 2
    return dict(zip(labels, degrees)), 2 * n_edges / n, 2 * n_edges / (n * (n - 1))


def _components(sigma: np.ndarray) -> list[np.ndarray]:
    """Member indices per component, largest first, ties by smallest member."""
    reach = sigma > 0
    roots, sizes = np.unique(reach.argmax(axis=1), return_counts=True)
    return [np.flatnonzero(reach[r]) for _, r in sorted(zip(-sizes, roots))]


def _diameter(sigma: np.ndarray, levels: list[np.ndarray]) -> DiameterInfo:
    if len(levels) == 1:
        raise ValueError("no paths: network has no edges")
    comps = _components(sigma)
    eccentricity = sum(level.any(axis=1) for level in levels[1:])
    return DiameterInfo(steps=int(eccentricity[comps[0]].max()),
                        component_size=len(comps[0]), n_components=len(comps))


def _betweenness(A: np.ndarray, sigma: np.ndarray, levels: list[np.ndarray]) -> np.ndarray:
    """Brandes (2001) dependency accumulation, level by level for all sources."""
    delta = np.zeros_like(sigma)
    for d in range(len(levels) - 2, 0, -1):
        share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=levels[d + 1])
        delta += np.where(levels[d], sigma * (share @ A), 0.0)
    return delta.sum(axis=0) / 2.0


def _centralization(A: np.ndarray, sigma: np.ndarray, levels: list[np.ndarray]) -> float:
    n = len(A)
    if n < 3:
        raise ValueError("centralization undefined: need at least 3 nodes")
    bc = _betweenness(A, sigma, levels)
    return float((bc.max() - bc).sum()) / ((n - 1) ** 2 * (n - 2) / 2.0)


def _triangles(A: np.ndarray) -> np.ndarray:
    return ((A @ A) * A).sum(axis=1).astype(np.int64) // 2


def _clustering(A: np.ndarray) -> tuple[float, float]:
    n = len(A)
    if n < 3:
        raise ValueError("clustering undefined: need at least 3 nodes")
    tri = _triangles(A)
    degrees = A.sum(axis=1).astype(np.int64)
    wedges = degrees * (degrees - 1) // 2
    triples = int(wedges.sum())
    transitivity = int(tri.sum()) / triples if triples else 0.0
    local = np.divide(tri, wedges, out=np.zeros(n), where=wedges > 0)
    return transitivity, float(local.sum()) / n


def degree_stats(net) -> tuple[dict[str, int], float, float]:
    """Per-node degree, average degree 2E/N, density 2E/(N(N-1))."""
    return _degree_stats(*_matrix(net))


def connected_components(net) -> list[set[str]]:
    """Components sorted by decreasing size, ties by smallest member."""
    labels, A = _matrix(net)
    sigma, _ = _levels(A)
    return [{labels[i] for i in comp} for comp in _components(sigma)]


def diameter(net) -> DiameterInfo:
    """Longest shortest path (in steps) over the largest connected component."""
    return _diameter(*_levels(_matrix(net)[1]))


def betweenness_centrality(net) -> dict[str, float]:
    """Raw betweenness per node, each unordered pair counted once.

    Shortest-path ties are split evenly.
    """
    labels, A = _matrix(net)
    return dict(zip(labels, _betweenness(A, *_levels(A)).tolist()))


def betweenness_centralization(net) -> float:
    """Freeman centralization of betweenness: 1.0 for a star, 0.0 when all
    nodes broker equally (any vertex-transitive graph)."""
    _, A = _matrix(net)
    return _centralization(A, *_levels(A))


def triangle_counts(net) -> dict[str, int]:
    """Triangles incident to each node."""
    labels, A = _matrix(net)
    return dict(zip(labels, _triangles(A).tolist()))


def clustering(net) -> tuple[float, float]:
    """(transitivity, average local clustering).

    Transitivity is 3*triangles / connected triples. The local average
    includes every node, with degree < 2 contributing zero.
    """
    return _clustering(_matrix(net)[1])


def _log_zeta_deriv(alpha: float, h: float = 1e-5) -> float:
    return (math.log(zeta(alpha + h, 1)) - math.log(zeta(alpha - h, 1))) / (2 * h)


def powerlaw_fit(degrees: Iterable[int]) -> PowerlawFit:
    """Discrete maximum-likelihood exponent for P(k) ~ k^-alpha, k_min = 1.

    Solves d/d(alpha) of the zeta log-likelihood for the root; requires a
    spread-out positive degree sequence (at least 10 distinct values).
    """
    ks = np.asarray(list(degrees), dtype=np.int64)
    if ks.size == 0 or np.any(ks < 1):
        raise ValueError("degrees must be positive integers")
    distinct = np.unique(ks)
    if distinct.size == 1:
        raise ValueError("no power-law support: all degrees equal")
    if distinct.size < 10:
        raise ValueError(f"no power-law support: only {distinct.size} distinct degrees")
    mean_log = float(np.mean(np.log(ks)))

    def score(alpha: float) -> float:
        return -_log_zeta_deriv(alpha) - mean_log

    lo, hi = 1.0001, 10.0
    while score(hi) > 0:
        hi *= 2
        if hi > 1e6:
            raise ValueError("no power-law support: degree spread too small")
    alpha = float(brentq(score, lo, hi, xtol=1e-10))
    loglik = float(-alpha * np.sum(np.log(ks)) - ks.size * math.log(zeta(alpha, 1)))
    return PowerlawFit(alpha=alpha, loglik=loglik)


def compute_stats(net: CollabNetwork, fit_powerlaw: bool = False) -> NetworkStats:
    """Run the full battery on one network snapshot."""
    labels, A = _matrix(net)
    degrees, avg_degree, density = _degree_stats(labels, A)
    sigma, levels = _levels(A)
    diam = _diameter(sigma, levels)
    centralization = _centralization(A, sigma, levels)
    transitivity, avg_local = _clustering(A)
    alpha: float | None = None
    if fit_powerlaw:
        try:
            alpha = powerlaw_fit([d for d in degrees.values() if d > 0]).alpha
        except ValueError:
            alpha = None
    return NetworkStats(
        specialty=net.specialty,
        year=net.year,
        n_nodes=net.n_nodes,
        n_edges=net.n_edges,
        diameter=diam.steps,
        avg_degree=avg_degree,
        density=density,
        betweenness_centralization=centralization,
        transitivity=transitivity,
        avg_local_clustering=avg_local,
        n_components=diam.n_components,
        powerlaw_alpha=alpha,
    )


def _fmt(value, fixed_decimals: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}" if fixed_decimals else f"{value:.12g}"
    return str(value)


def stats_row(stats: NetworkStats, fixed_decimals: bool = False) -> list[str]:
    values = [
        stats.specialty, stats.year, stats.n_nodes, stats.n_edges,
        stats.diameter, stats.avg_degree, stats.density,
        stats.betweenness_centralization, stats.transitivity,
        stats.avg_local_clustering, stats.n_components, stats.powerlaw_alpha,
    ]
    return [_fmt(v, fixed_decimals) for v in values]


def stats_csv_text(stats_list: Iterable[NetworkStats], fixed_decimals: bool = False) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(STATS_COLUMNS)
    for s in stats_list:
        writer.writerow(stats_row(s, fixed_decimals))
    return out.getvalue()


def stats_json_text(stats_list: Iterable[NetworkStats]) -> str:
    """One JSON object per line, keys matching the CSV columns."""
    return "".join(json.dumps(s.to_json_obj(), sort_keys=True) + "\n"
                   for s in stats_list)


def read_stats_csv(source: str | Path | Iterable[str]) -> list[dict]:
    """Read stats rows back as dicts; blank cells become None."""
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    else:
        rows = list(csv.DictReader(source))
    out = []
    for row in rows:
        parsed: dict = {"specialty": row.get("specialty", "")}
        for col in ("year", "nodes", "edges", "diameter", "components"):
            raw = row.get(col)
            parsed[col] = int(raw) if raw not in (None, "") else None
        for col in ("avg_degree", "density", "betweenness_centralization",
                    "transitivity", "avg_local_clustering", "alpha"):
            raw = row.get(col)
            parsed[col] = float(raw) if raw not in (None, "") else None
        out.append(parsed)
    return out


GRID_MEASURES = (
    ("Avg. Degree", "avg_degree"),
    ("Density", "density"),
    ("Betweenness", "betweenness_centralization"),
    ("Clustering", "transitivity"),
    ("Avg. Cluster", "avg_local_clustering"),
)


def format_stats_grid(rows: list[dict]) -> str:
    """Measure-by-year grid per specialty, one block per specialty."""
    years = sorted({r["year"] for r in rows if r.get("year") is not None})
    specialties = sorted({r["specialty"] for r in rows})
    by_key = {(r["specialty"], r["year"]): r for r in rows}
    width = max([len(s) for s in specialties] + [len(m) for m, _ in GRID_MEASURES] + [12])
    header = "".join(f"{y:>10}" for y in years)
    lines = [f"{'Field / Measure':<{width}}{header}"]
    for spec in specialties:
        lines.append(spec)
        for label, col in GRID_MEASURES:
            cells = []
            for y in years:
                row = by_key.get((spec, y))
                val = row.get(col) if row else None
                cells.append(f"{val:>10.2f}" if val is not None else f"{'':>10}")
            lines.append(f"  {label:<{width - 2}}{''.join(cells)}")
    return "\n".join(lines) + "\n"
