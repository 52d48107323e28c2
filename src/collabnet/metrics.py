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
from typing import Iterable, NamedTuple

import numpy as np

from .longit import read_stats_csv  # noqa: F401  (the reader of stats_csv_text output)
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


def _clustering(A: np.ndarray) -> tuple[float, float]:
    n = len(A)
    if n < 3:
        raise ValueError("clustering undefined: need at least 3 nodes")
    tri = ((A @ A) * A).sum(axis=1).astype(np.int64) // 2  # triangles at each node
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


def clustering(net) -> tuple[float, float]:
    """(transitivity, average local clustering).

    Transitivity is 3*triangles / connected triples. The local average
    includes every node, with degree < 2 contributing zero.
    """
    return _clustering(_matrix(net)[1])


def powerlaw_fit(degrees: Iterable[int]) -> PowerlawFit:
    """Discrete maximum-likelihood exponent for P(k) ~ k^-alpha, k_min = 1
    (Clauset, Shalizi and Newman 2009, SIAM Rev. 51(4)).

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

    h = 1e-5

    def score(alpha: float) -> float:
        log_zeta_deriv = (math.log(_zeta(alpha + h)) - math.log(_zeta(alpha - h))) / (2 * h)
        return -log_zeta_deriv - mean_log

    lo, hi = 1.0001, 10.0
    while score(hi) > 0:
        hi *= 2
        if hi > 1e6:
            raise ValueError("no power-law support: degree spread too small")
    alpha = _brentq(score, lo, hi, xtol=1e-10)
    loglik = float(-alpha * np.sum(np.log(ks)) - ks.size * math.log(_zeta(alpha)))
    return PowerlawFit(alpha=alpha, loglik=loglik)


# Euler-Maclaurin coefficients (2k)!/B_2k of Cephes zeta.c.
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def _zeta(x: float) -> float:
    """Riemann zeta(x) for x > 1, computed as Hurwitz zeta(x, 1).

    An operation-for-operation port of Cephes zeta.c (Moshier) as SciPy
    ships it, so it returns the bits of `scipy.special.zeta(x, 1)`: a direct
    sum of at least 10 terms, then an Euler-Maclaurin tail.
    """
    if x == 1.0:
        return math.inf
    if x < 1.0:
        return math.nan
    s = 1.0
    a = 1.0
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method.

    An operation-for-operation port of SciPy's Zeros/brentq.c (BSD-3), with
    its default rtol and maxiter, so it returns the bits of
    `scipy.optimize.brentq`.
    """
    rtol, maxiter = 4 * 2.220446049250313e-16, 100
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq did not converge in {maxiter} iterations")


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


GRID_MEASURES = (
    ("Avg. Degree", "avg_degree"),
    ("Density", "density"),
    ("Betweenness", "betweenness_centralization"),
    ("Clustering", "transitivity"),
    ("Avg. Cluster", "avg_local_clustering"),
)


def format_stats_grid(rows: list[dict]) -> str:
    """Measure-by-year grid per specialty, one block per specialty.

    `rows` are stats dicts keyed by the stats CSV columns
    (`NetworkStats.to_json_obj`); each cell rounds the value once, to 2
    decimals.
    """
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
